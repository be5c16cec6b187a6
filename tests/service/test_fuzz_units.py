"""Fuzz indices are work items on the campaign scheduler.

A :class:`FuzzTask` rides the same units, retries and per-slot pipes as
a campaign scenario.  With a chaos kill on one task's key the worker
SIGKILLs itself mid-unit; the unit is resubmitted, every key is
reported exactly once, and the victim's row is the one an in-process
``run_fuzz_iteration`` computes.
"""

import collections

from repro.fuzz.harness import FuzzTask, run_fuzz_iteration
from repro.service import CampaignService, CampaignSpec

FUZZ_SEED = 0
INDICES = 4
VICTIM = 1


def test_chaos_killed_fuzz_unit_is_retried_and_reported_once(tmp_path):
    tasks = [FuzzTask(FUZZ_SEED, index) for index in range(INDICES)]
    victim = tasks[VICTIM]
    service = CampaignService(tmp_path / "state", workers=2)
    service.start()
    try:
        state = service.submit_grid(
            tasks,
            spec=CampaignSpec(shard_size=2, chaos_kill_key=victim.key()),
        )
        reported = []
        while state.state == "running":
            reported.extend(
                record for _id, record in service.step(service.poll_s)
            )
    finally:
        service.shutdown()
    assert state.state == "done"
    assert state.retries >= 1  # the chaos kill forfeited a unit
    counts = collections.Counter(record.key for record in reported)
    assert counts == {task.key(): 1 for task in tasks}
    rows = {record.key: record.row for record in reported}
    assert rows[victim.key()] == run_fuzz_iteration(FUZZ_SEED, VICTIM)
    assert [rows[task.key()].index for task in tasks] == list(range(INDICES))
