"""The fuzz loop end to end: clean runs, the planted-bug self-test,
shrinking, journaling, and worker-count determinism.

The planted-bug tests are the harness's acceptance contract: a fuzzer
is only trustworthy if, handed a known bug (an incremental dependency
cone cut to one hop, so an entry learned downstream of a changed router
outlives its advertiser's withdrawal — planted behind the hidden
``shallow-invalidation`` flag), it finds the divergence, shrinks it,
and emits a corpus record that fails while the bug is planted and
passes the moment it is fixed.  A second planted bug,
``delta-ignores-lists``, makes the derived config delta blind to the
lists a session's route map matches on; the fuzzer must find that one
through an internal-session list edit.
"""

import json
import os
import signal

import pytest

from repro.batfish.bgpsim import _plant_bug, _planted_bugs
from repro.cli import main
from repro.core import toggles
from repro.experiments.campaign import CampaignInterrupted, CampaignStalled
from repro.fuzz import harness
from repro.fuzz.corpus import replay_record, repro_filename
from repro.fuzz.harness import (
    FuzzConfig,
    FuzzTask,
    fold_fuzz_journal,
    run_fuzz,
    run_fuzz_iteration,
)
from repro.service import scheduler
from repro.service.scheduler import WorkUnit

# Seed 67's scenario sequence is clean at index 0 and hits the planted
# bug at index 1, so two iterations exercise a clean index and a
# finding one.
PLANTED_SEED = 67
PLANTED_ITERATIONS = 2
PLANTED = ("shallow-invalidation",)

# Seed 17 does the same for the list-blind config delta.
LISTS_SEED = 17
LISTS_PLANTED = ("delta-ignores-lists",)


class TestRunFuzzIteration:
    def test_clean_iteration_is_ok(self):
        result = run_fuzz_iteration(0, 0)
        assert result.ok
        assert result.repro is None
        assert result.error is None

    def test_unknown_planted_bug_is_rejected(self):
        with pytest.raises(ValueError, match="unknown planted bug"):
            run_fuzz_iteration(0, 0, planted=("no-such-bug",))

    def test_planted_state_is_restored_even_after_a_find(self):
        result = run_fuzz_iteration(PLANTED_SEED, 1, planted=PLANTED)
        assert not result.ok
        assert _planted_bugs() == frozenset()
        assert toggles.deviations() == []


class TestPlantedBugContract:
    @pytest.fixture(scope="class")
    def finding(self):
        return run_fuzz_iteration(PLANTED_SEED, 1, planted=PLANTED)

    def test_planted_bug_is_found(self, finding):
        assert not finding.ok
        assert finding.combo["incremental_simulation"]
        assert finding.repro is not None
        assert finding.mismatch and "diverged" in finding.mismatch

    def test_shrinker_minimized_the_scenario(self, finding):
        """The generated scenario at (67, 1) carries four edits on a
        7-router ring; the planted cone bug needs one withdrawal
        (incremental re-simulation only runs after an edit) on a
        4-router one, so the shrunk repro is strictly smaller."""
        from repro.fuzz.scenarios import scenario_at

        original = scenario_at(PLANTED_SEED, 1)
        assert len(original.edits) > 1  # there was something to shrink away
        shrunk = finding.repro["scenario"]
        assert len(shrunk["edits"]) == 1
        assert shrunk["size"] < original.size
        assert shrunk["roles"] == "default"
        assert shrunk["topo"] == "default"
        assert shrunk["place"] == "default"
        assert shrunk["topology_seed"] == 0

    def test_corpus_record_fails_planted_and_passes_fixed(self, finding):
        """The acceptance criterion: the emitted corpus file fails
        before the fix (bug planted) and passes after (bug unplanted —
        the shipped cone drops every entry whose path crosses a changed
        router)."""
        record = finding.repro
        _plant_bug("shallow-invalidation", True)
        try:
            assert replay_record(record) is not None
        finally:
            _plant_bug("shallow-invalidation", False)
        assert replay_record(record) is None

    def test_repro_filename_is_content_addressed(self, finding):
        name = repro_filename(finding.repro)
        assert name.startswith("fuzz-")
        assert name.endswith(".json")
        assert repro_filename(finding.repro) == name


class TestListBlindDeltaIsFound:
    """The derived delta must compare the lists a session's map matches
    on: with that comparison planted away, a prefix-list edit under an
    unchanged core export map leaves the warm RIBs stale."""

    @pytest.fixture(scope="class")
    def finding(self):
        return run_fuzz_iteration(LISTS_SEED, 1, planted=LISTS_PLANTED)

    def test_clean_index_stays_clean(self):
        assert run_fuzz_iteration(LISTS_SEED, 0, planted=LISTS_PLANTED).ok

    def test_planted_bug_is_found_through_a_list_edit(self, finding):
        assert not finding.ok
        assert finding.combo["incremental_simulation"]
        shrunk = finding.repro["scenario"]
        assert [edit["op"] for edit in shrunk["edits"]] == [
            "drop_core_list_entry"
        ]

    def test_corpus_record_fails_planted_and_passes_fixed(self, finding):
        record = finding.repro
        _plant_bug("delta-ignores-lists", True)
        try:
            assert replay_record(record) is not None
        finally:
            _plant_bug("delta-ignores-lists", False)
        assert replay_record(record) is None


class TestRunFuzz:
    def test_requires_iterations_or_budget(self, tmp_path):
        with pytest.raises(ValueError, match="iterations or budget"):
            run_fuzz(FuzzConfig(corpus_dir=tmp_path / "corpus"))

    def test_journal_resume_skips_completed_indices(self, tmp_path):
        journal = tmp_path / "fuzz.jsonl"
        corpus = tmp_path / "corpus"
        config = FuzzConfig(fuzz_seed=0, iterations=2, corpus_dir=corpus)
        first = run_fuzz(config, journal_path=journal, resume=False)
        assert len(first.results) == 2
        lines_before = journal.read_text().count("\n")
        resumed = run_fuzz(
            FuzzConfig(fuzz_seed=0, iterations=3, corpus_dir=corpus),
            journal_path=journal,
            resume=True,
        )
        assert len(resumed.results) == 3
        assert resumed.resumed == 2
        # Only index 2 was journaled by the resumed run.
        assert journal.read_text().count("\n") == lines_before + 1
        folded = fold_fuzz_journal(journal)
        assert sorted(folded) == [0, 1, 2]

    def test_worker_count_never_changes_the_outcome(self, tmp_path):
        """Same --fuzz-seed ⇒ identical folded results and identical
        shrunk repro bytes at 1 and 4 workers (scenario derivation is a
        pure function of (seed, index) and corpus files are content-
        addressed and written by the parent only)."""
        outcomes = {}
        for workers in (1, 4):
            journal = tmp_path / f"fuzz-{workers}.jsonl"
            corpus = tmp_path / f"corpus-{workers}"
            summary = run_fuzz(
                FuzzConfig(
                    fuzz_seed=PLANTED_SEED,
                    iterations=PLANTED_ITERATIONS,
                    workers=workers,
                    corpus_dir=corpus,
                    planted=PLANTED,
                ),
                journal_path=journal,
                resume=False,
            )
            folded = fold_fuzz_journal(journal)
            outcomes[workers] = (
                {index: result for index, result in folded.items()},
                {
                    path.name: path.read_bytes()
                    for path in sorted(corpus.glob("*.json"))
                },
                [written.name for written in summary.corpus_written],
            )
        assert outcomes[1] == outcomes[4]
        _folded, corpus_bytes, _written = outcomes[1]
        assert corpus_bytes  # the planted bug produced a repro


def _journaled_indices(journal):
    """Every ``fuzz_result`` index in journal order, duplicates kept."""
    return [
        record["index"]
        for record in map(json.loads, journal.read_text().splitlines())
        if record["kind"] == "fuzz_result"
    ]


def _rebuild(marker, fuzz_seed, index, planted):
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return FuzzTask(fuzz_seed, index, planted)


class _Bombed:
    """Stands in for a :class:`FuzzTask` while ``harness.FuzzTask`` is
    patched (so plain tasks cannot be pickled by name).  With a
    ``marker``, the first unpickling in a worker kills that worker."""

    def __init__(self, fuzz_seed, index, planted, marker):
        self._args = (marker, fuzz_seed, index, planted)

    def key(self):
        return FuzzTask(*self._args[1:]).key()

    def __reduce__(self):
        return (_rebuild, self._args)


class TestParallelFuzz:
    def test_sigkilled_worker_unit_is_retried_and_journaled_once(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "killed"

        def task(fuzz_seed, index, planted=()):
            bomb = str(marker) if index == 2 else None
            return _Bombed(fuzz_seed, index, planted, bomb)

        monkeypatch.setattr(harness, "FuzzTask", task)
        journal = tmp_path / "fuzz.jsonl"
        run_fuzz(
            FuzzConfig(iterations=6, workers=2, corpus_dir=tmp_path / "c"),
            journal_path=journal,
        )
        assert marker.exists(), "the bomb never went off"
        assert sorted(_journaled_indices(journal)) == list(range(6))
        assert fold_fuzz_journal(journal) == {
            index: run_fuzz_iteration(0, index) for index in range(6)
        }

    def test_budget_mode_journals_a_prefix_once(self, tmp_path):
        journal = tmp_path / "fuzz.jsonl"
        summary = run_fuzz(
            FuzzConfig(budget_s=3.0, workers=2, corpus_dir=tmp_path / "c"),
            journal_path=journal,
        )
        indices = _journaled_indices(journal)
        assert len(indices) >= 4  # the first wave always runs
        assert sorted(indices) == list(range(len(indices)))
        assert [result.index for result in summary.results] == sorted(indices)


def _failing_driver(stalled):
    """A batch driver that runs every item of the first wave but the
    last in-process, then reports the last one's unit as failed."""

    def run_waves(waves, workers, on_record, **options):
        wave = next(iter(waves))
        for item in wave[:-1]:
            on_record(item.execute())
        return [
            WorkUnit(index=0, items=wave[-1:], state="failed", attempts=3,
                     stalled=stalled)
        ]

    return run_waves


class TestInterruptedFuzz:
    @pytest.mark.parametrize(
        "stalled, error", [(False, CampaignInterrupted), (True, CampaignStalled)]
    )
    def test_failed_unit_raises_with_finished_indices_journaled(
        self, tmp_path, monkeypatch, stalled, error
    ):
        monkeypatch.setattr(scheduler, "run_waves", _failing_driver(stalled))
        journal = tmp_path / "fuzz.jsonl"
        with pytest.raises(error) as raised:
            run_fuzz(
                FuzzConfig(iterations=3, workers=2, corpus_dir=tmp_path / "c"),
                journal_path=journal,
            )
        assert type(raised.value) is error
        assert f"--resume {journal}" in str(raised.value)
        assert "2/3" in str(raised.value)
        assert (raised.value.completed, raised.value.total) == (2, 3)
        assert _journaled_indices(journal) == [0, 1]

    def test_cli_exits_3_and_resumes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(scheduler, "run_waves", _failing_driver(False))
        journal = tmp_path / "fuzz.jsonl"
        corpus = tmp_path / "corpus"
        args = ["fuzz", "--iterations", "3", "--corpus", str(corpus)]
        code = main([*args, "--workers", "2", "--journal", str(journal)])
        assert code == 3
        assert f"--resume {journal}" in capsys.readouterr().err
        assert main([*args, "--resume", str(journal), "--quiet"]) == 0
        assert sorted(_journaled_indices(journal)) == [0, 1, 2]
