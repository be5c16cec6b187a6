"""Stall detection reads unit progress, not heartbeats.

A worker hung inside a unit keeps heartbeating from its daemon thread,
so a heartbeat clock never declares it stalled.  The scheduler's stall
clock restarts only on dispatch, spawn, and started/row/unit messages:
a hang bomb must be killed within ``stall_timeout_s`` and, with no
retry budget, fail its unit alone.
"""

import time

from repro.experiments.campaign import build_grid
from repro.service import CampaignService


def _hang_self():
    time.sleep(600)


class _HangBomb:
    """A grid entry with the victim's key; unpickling it in a worker
    hangs that worker's main thread."""

    def __init__(self, scenario):
        self._key = scenario.key()

    def key(self):
        return self._key

    def __reduce__(self):
        return (_hang_self, ())


def test_hung_worker_is_reaped_despite_heartbeats(tmp_path):
    grid = build_grid(["chain", "star"], [4], seeds=2)
    started = time.monotonic()
    service = CampaignService(
        tmp_path / "state", workers=2, retry_limit=0, stall_timeout_s=2
    )
    service.start()
    try:
        # Four scenarios on two workers: one scenario per unit.
        state = service.submit_grid([*grid[:-1], _HangBomb(grid[-1])])
        while state.state == "running":
            assert time.monotonic() - started < 30, state.status()
            service.step(service.poll_s)
    finally:
        service.shutdown()
    states = [unit.state for unit in state.units]
    assert states == ["done"] * (len(grid) - 1) + ["failed"]
    assert state.units[-1].stalled
    assert time.monotonic() - started < 30
