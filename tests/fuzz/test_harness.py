"""The fuzz loop end to end: clean runs, the planted-bug self-test,
shrinking, journaling, and worker-count determinism.

The planted-bug tests are the harness's acceptance contract: a fuzzer
is only trustworthy if, handed a known historical bug (a decision key
without its ``(asns, path)`` tail, so ties fall back to arrival order —
re-enabled behind the hidden ``short-decision-key`` flag), it finds the
divergence, shrinks it, and emits a corpus record that fails while the
bug is planted and passes the moment it is fixed.
"""

import json

import pytest

from repro.batfish.bgpsim import _plant_bug, _planted_bugs
from repro.core import toggles
from repro.fuzz.corpus import replay_record, repro_filename
from repro.fuzz.harness import (
    FuzzConfig,
    fold_fuzz_journal,
    run_fuzz,
    run_fuzz_iteration,
)

# The planted-bug hit in seed 55's scenario sequence sits at index 1
# (the only hit among indices 0-1 of seeds 0-79), so two iterations
# exercise a clean index and a finding one.
PLANTED_SEED = 55
PLANTED_ITERATIONS = 2
PLANTED = ("short-decision-key",)


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
        """The generated scenario at (55, 1) carries four edits on an
        8-router network; the planted tie bug needs one policy edit
        (incremental re-simulation only runs after an edit) on a
        7-router one, so the shrunk repro is strictly smaller."""
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
        the shipped decision key carries the total tie-break)."""
        record = finding.repro
        _plant_bug("short-decision-key", True)
        try:
            assert replay_record(record) is not None
        finally:
            _plant_bug("short-decision-key", False)
        assert replay_record(record) is None

    def test_repro_filename_is_content_addressed(self, finding):
        name = repro_filename(finding.repro)
        assert name.startswith("fuzz-")
        assert name.endswith(".json")
        assert repro_filename(finding.repro) == name


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
