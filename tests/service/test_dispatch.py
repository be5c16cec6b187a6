"""A work item that cannot be pickled fails its unit at dispatch.

The scheduler pickles each unit's payload itself before queueing it.
Left to the task queue's feeder thread, an unpicklable item was dropped
on the floor: its unit stayed "running" with no worker on it, and under
``run_campaign``'s default ``timeout=None`` no stall timeout ever ended
the run.
"""

import time

import pytest

from repro.experiments.campaign import (
    UnpicklableWorkItem,
    build_grid,
    run_campaign,
)
from repro.service import CampaignService


class _Unpicklable:
    """A grid entry with a scenario's key that refuses to be pickled."""

    def __init__(self, scenario):
        self._key = scenario.key()

    def key(self):
        return self._key

    def __reduce__(self):
        raise TypeError("this item holds a live resource")


def test_unpicklable_item_fails_its_unit_within_seconds():
    grid = build_grid(["chain", "star"], [4], seeds=2)
    victim = _Unpicklable(grid[-1])
    started = time.monotonic()
    with pytest.raises(UnpicklableWorkItem) as caught:
        run_campaign([*grid[:-1], victim], workers=2, timeout=None)
    assert time.monotonic() - started < 30
    message = str(caught.value)
    assert repr(victim.key()) in message
    assert "this item holds a live resource" in message
    # Every other scenario ran to completion before the run gave up.
    assert caught.value.completed == len(grid) - 1
    assert caught.value.total == len(grid)


def test_service_status_names_the_unpicklable_item(tmp_path):
    grid = build_grid(["chain"], [4], seeds=2)
    victim = _Unpicklable(grid[-1])
    service = CampaignService(tmp_path / "state", workers=1, stall_timeout_s=None)
    service.start()
    started = time.monotonic()
    try:
        state = service.submit_grid([*grid[:-1], victim])
        while state.state == "running":
            assert time.monotonic() - started < 30, state.status()
            service.step(service.poll_s)
    finally:
        service.shutdown()
    units = state.status()["units"]
    assert [unit["state"] for unit in units] == ["done", "failed"]
    assert units[0]["error"] is None
    assert repr(victim.key()) in units[1]["error"]
    assert units[1]["attempts"] == 0
