"""Batch campaigns retry a unit whose worker died.

``run_campaign(workers > 1)`` runs on the campaign service's scheduler,
so one worker death costs a resubmission, not the grid: the run returns
normally, every key is journaled, and the artifacts are byte-identical
to a serial run.

The death is injected with a kill-once pickle bomb: the first worker to
unpickle the victim scenario creates a marker file and SIGKILLs itself;
every later unpickle returns the real scenario.
"""

import os
import signal

from repro.experiments.campaign import build_grid, fold_journal, run_campaign

GRID_ARGS = dict(families=["chain", "star"], sizes=[4], seeds=2)


def _grid():
    return build_grid(**GRID_ARGS)


def _artifacts(summary, tmp_path, stem):
    json_path = summary.write_json(tmp_path / f"{stem}.json")
    csv_path = summary.write_csv(tmp_path / f"{stem}.csv")
    return json_path.read_bytes(), csv_path.read_bytes()


def _kill_once(marker, scenario):
    if not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return scenario


class _KillOnce:
    """A grid entry standing in for ``scenario``; the first unpickling
    in a worker kills that worker."""

    def __init__(self, scenario, marker):
        self._scenario = scenario
        self._marker = str(marker)

    def key(self):
        return self._scenario.key()

    def __reduce__(self):
        return (_kill_once, (self._marker, self._scenario))


class TestBatchRetry:
    def test_batch_run_survives_one_worker_death(self, tmp_path):
        grid = _grid()
        marker = tmp_path / "killed"
        journal = tmp_path / "retry.jsonl"
        summary = run_campaign(
            [*grid[:-1], _KillOnce(grid[-1], marker)],
            workers=2,
            journal_path=journal,
        )
        assert marker.exists(), "the bomb never went off"
        assert not summary.incomplete
        assert set(fold_journal(journal)) == {s.key() for s in grid}
        baseline = run_campaign(grid, workers=1)
        assert _artifacts(summary, tmp_path, "retried") == _artifacts(
            baseline, tmp_path, "serial"
        )
