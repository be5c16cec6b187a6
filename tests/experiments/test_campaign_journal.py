"""Streaming journal + resume: interrupted grids converge byte-for-byte.

The engine's core guarantee: a campaign interrupted mid-grid and
resumed from its journal produces final JSON/CSV summaries
byte-identical to an uninterrupted run, at any worker count.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.campaign import (
    CompletedScenario,
    build_grid,
    execute_scenario,
    fold_journal,
    run_campaign,
    run_scenario,
    Scenario,
    summary_from_journal,
)
from repro.experiments.no_transit import materialize_network
from repro.symbolic.memo import memo_totals

GRID_ARGS = dict(families=["chain", "star"], sizes=[4], seeds=2)


def _grid():
    return build_grid(**GRID_ARGS)


def _artifacts(summary, tmp_path, stem):
    json_path = summary.write_json(tmp_path / f"{stem}.json")
    csv_path = summary.write_csv(tmp_path / f"{stem}.csv")
    return json_path.read_bytes(), csv_path.read_bytes()


class TestJournal:
    def test_journal_streams_one_line_per_scenario(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        summary = run_campaign(_grid(), workers=1, journal_path=journal)
        lines = journal.read_text().splitlines()
        assert len(lines) == len(_grid()) + 1  # header + one per scenario
        header = json.loads(lines[0])
        assert header["kind"] == "campaign"
        assert header["scenarios"] == len(_grid())
        assert not summary.incomplete

    def test_fold_reconstructs_rows(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        summary = run_campaign(_grid(), workers=1, journal_path=journal)
        folded = fold_journal(journal)
        assert set(folded) == {scenario.key() for scenario in _grid()}
        assert [folded[s.key()].row for s in _grid()] == summary.rows

    def test_fold_tolerates_truncated_and_garbage_lines(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_campaign(_grid(), workers=1, journal_path=journal)
        with journal.open("a") as handle:
            handle.write("not json at all\n")
            handle.write('{"kind": "result", "key": "chain:4:0:d')  # truncated
        folded = fold_journal(journal)
        assert set(folded) == {scenario.key() for scenario in _grid()}

    def test_fold_missing_file_is_empty(self, tmp_path):
        assert fold_journal(tmp_path / "nope.jsonl") == {}

    def test_fold_tolerates_non_numeric_cache_fields(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_campaign(_grid(), workers=1, journal_path=journal)
        lines = journal.read_text().splitlines()
        record = json.loads(lines[-1])
        del record["metrics"]  # a pre-v6 line: flat named counters
        record["cache_hits"] = None
        record["cache_misses"] = "garbage"
        with journal.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        folded = fold_journal(journal)
        # null coerces to 0; the unparseable record is skipped, keeping
        # the earlier good record for that key.
        assert folded[record["key"]].row.family == record["row"]["family"]

    def test_pre_v6_lines_fold_to_the_same_summary_counts(self, tmp_path):
        """A pre-v6 line carries flat named counters instead of a
        metrics delta; folding maps them onto the same series, so the
        summary's counter views are unchanged."""
        journal = tmp_path / "campaign.jsonl"
        live = run_campaign(_grid(), workers=1, journal_path=journal)
        legacy = tmp_path / "legacy.jsonl"
        lines = []
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            metrics = record.pop("metrics", None)
            if metrics is not None:
                hits, misses = memo_totals(metrics)
                record.update(
                    cache_hits=hits,
                    cache_misses=misses,
                    sim_full_runs=metrics.get("sim.full_converge.count", 0),
                    sim_incremental_runs=metrics.get(
                        "sim.incremental_converge.count", 0
                    ),
                    sim_full_evals=metrics.get("sim.full_evaluations", 0),
                    sim_incremental_evals=metrics.get(
                        "sim.incremental_evaluations", 0
                    ),
                    routes_built=metrics.get("route.routes_built", 0),
                    routes_reused=metrics.get("route.routes_reused", 0),
                )
            lines.append(json.dumps(record))
        legacy.write_text("\n".join(lines) + "\n")
        report = summary_from_journal(legacy)
        counters = (
            "cache_hits", "cache_misses", "sim_full_runs",
            "sim_incremental_runs", "sim_full_evals",
            "sim_incremental_evals", "routes_built", "routes_reused",
        )
        assert live.cache_hits + live.cache_misses > 0
        assert live.sim_full_runs + live.sim_incremental_runs > 0
        for name in counters:
            assert getattr(report, name) == getattr(live, name), name
        assert report.cache_breakdown() == [
            ("unattributed", live.cache_hits, live.cache_misses)
        ]

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="journal_path"):
            run_campaign(_grid(), resume=True)

    def test_fresh_run_refuses_to_truncate_populated_journal(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_campaign(_grid(), workers=1, journal_path=journal, limit=2)
        with pytest.raises(ValueError, match="already holds results"):
            run_campaign(_grid(), workers=1, journal_path=journal)
        # Still resumable afterwards — nothing was truncated.
        summary = run_campaign(
            _grid(), workers=1, journal_path=journal, resume=True
        )
        assert not summary.incomplete

    def test_fresh_run_overwrites_journal_of_a_different_grid(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        other = build_grid(["mesh"], [4], seeds=1)
        run_campaign(other, workers=1, journal_path=journal)
        summary = run_campaign(_grid(), workers=1, journal_path=journal)
        assert not summary.incomplete
        assert set(fold_journal(journal)) == {
            scenario.key() for scenario in _grid()
        }

    def test_limit_stops_midway_and_reports_incomplete(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        summary = run_campaign(
            _grid(), workers=1, journal_path=journal, limit=2
        )
        assert len(summary.rows) == 2
        assert summary.incomplete
        assert summary.total == len(_grid())


class TestResumeDeterminism:
    @pytest.fixture(scope="class")
    def baseline(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("baseline")
        summary = run_campaign(
            _grid(), workers=1, journal_path=tmp_path / "full.jsonl"
        )
        return _artifacts(summary, tmp_path, "full")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_kill_and_resume_matches_uninterrupted(
        self, baseline, tmp_path, workers
    ):
        journal = tmp_path / "partial.jsonl"
        partial = run_campaign(
            _grid(), workers=workers, journal_path=journal, limit=2
        )
        assert partial.incomplete
        resumed = run_campaign(
            _grid(), workers=workers, journal_path=journal, resume=True
        )
        assert not resumed.incomplete
        assert resumed.resumed == 2
        assert _artifacts(resumed, tmp_path, "resumed") == baseline

    def test_worker_count_does_not_change_artifacts(self, baseline, tmp_path):
        summary = run_campaign(
            _grid(), workers=4, journal_path=tmp_path / "par.jsonl"
        )
        assert _artifacts(summary, tmp_path, "par") == baseline

    def test_resume_of_complete_journal_reruns_nothing(
        self, baseline, tmp_path
    ):
        journal = tmp_path / "full.jsonl"
        run_campaign(_grid(), workers=1, journal_path=journal)
        before = journal.read_text()
        resumed = run_campaign(
            _grid(), workers=1, journal_path=journal, resume=True
        )
        assert journal.read_text() == before  # nothing re-executed
        assert resumed.resumed == len(_grid())
        assert _artifacts(resumed, tmp_path, "noop") == baseline

    def test_journalless_run_matches_journaled(self, baseline, tmp_path):
        summary = run_campaign(_grid(), workers=1)
        assert _artifacts(summary, tmp_path, "memonly") == baseline

    @pytest.mark.parametrize("resume_workers", [1, 4])
    def test_crash_truncated_final_line_then_resume_other_worker_count(
        self, baseline, tmp_path, resume_workers
    ):
        """A crash mid-write leaves the journal's final line truncated;
        resuming — with a *different* worker count than wrote it — must
        re-run the mangled scenario and still match the uninterrupted
        artifacts byte for byte."""
        journal = tmp_path / "trunc.jsonl"
        run_campaign(_grid(), workers=1, journal_path=journal, limit=3)
        text = journal.read_text()
        assert text.endswith("\n")
        complete_lines = text.splitlines()
        assert len(complete_lines) == 4  # header + three results
        # Chop the final record mid-JSON, no trailing newline: exactly
        # what a SIGKILL between write() and flush boundaries leaves.
        journal.write_text(text[: -(len(complete_lines[-1]) // 2 + 1)])
        assert not journal.read_text().endswith("\n")
        folded = fold_journal(journal)
        assert len(folded) == 2  # the truncated record does not fold
        resumed = run_campaign(
            _grid(), workers=resume_workers, journal_path=journal, resume=True
        )
        assert not resumed.incomplete
        assert resumed.resumed == 2  # the truncated scenario re-ran
        assert _artifacts(resumed, tmp_path, "trunc") == baseline
        # The repaired journal is clean: every line folds, latest wins.
        assert len(fold_journal(journal)) == len(_grid())


class TestKillProcessAndResume:
    """A real mid-campaign SIGKILL: the journal survives, resume finishes.

    Timing-independent by construction — wherever the kill lands (before,
    during, or after the grid) the resumed artifacts must equal an
    uninterrupted run's.
    """

    ARGS = [
        "--families", "chain,star", "--sizes", "4,5", "--seeds", "2",
        "--workers", "1",
    ]

    @staticmethod
    def _cli(*extra):
        return [sys.executable, "-m", "repro", "campaign",
                *TestKillProcessAndResume.ARGS, *extra]

    @staticmethod
    def _env():
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        return env

    def test_sigkill_then_resume(self, tmp_path):
        journal = tmp_path / "kill.jsonl"
        process = subprocess.Popen(
            self._cli(
                "--journal", str(journal),
                "--json", str(tmp_path / "ignored.json"),
            ),
            cwd=tmp_path,
            env=self._env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        time.sleep(0.7)
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait()

        resume = subprocess.run(
            self._cli(
                "--resume", str(journal),
                "--json", str(tmp_path / "resumed.json"),
            ),
            cwd=tmp_path,
            env=self._env(),
            capture_output=True,
            text=True,
        )
        assert resume.returncode == 0, resume.stderr

        clean = subprocess.run(
            self._cli(
                "--journal", str(tmp_path / "clean.jsonl"),
                "--json", str(tmp_path / "clean.json"),
            ),
            cwd=tmp_path,
            env=self._env(),
            capture_output=True,
            text=True,
        )
        assert clean.returncode == 0, clean.stderr
        assert (tmp_path / "resumed.json").read_bytes() == (
            tmp_path / "clean.json"
        ).read_bytes()


class TestExecuteScenario:
    def test_records_key_and_cache_traffic(self):
        scenario = Scenario(family="ring", size=4, seed=0)
        record = execute_scenario(scenario)
        assert isinstance(record, CompletedScenario)
        assert record.key == scenario.key()
        assert record.row.verified
        hits, misses = memo_totals(record.metrics)
        assert hits + misses > 0

    def test_network_is_the_second_positional_parameter(self):
        """``execute_scenario(scenario, network)`` — the seam wrappers
        forward positionally — with ``None`` regenerating in place."""
        scenario = Scenario(family="ring", size=4, seed=0)
        record = execute_scenario(scenario, None)
        assert record.key == scenario.key()
        assert record.row.verified

    def test_run_scenario_network_param_matches_regeneration(self):
        """run_scenario on a pre-materialized network must produce the
        same row (wall-clock aside) as coordinate regeneration."""
        scenario = Scenario(family="star", size=5, seed=0)
        network = materialize_network(scenario.family, scenario.size)
        rows = [run_scenario(scenario), run_scenario(scenario, network)]
        dicts = []
        for row in rows:
            record = dict(vars(row))
            record.pop("duration_s")
            dicts.append(record)
        assert dicts[0] == dicts[1]

    def test_summary_aggregates_cache_traffic(self, tmp_path):
        summary = run_campaign(_grid(), workers=1)
        assert summary.cache_hits + summary.cache_misses > 0
        assert summary.cache_hit_rate is not None
        assert 0.0 <= summary.cache_hit_rate <= 1.0


class TestErrorTraces:
    """v5 journals carry the full traceback of an error row; summary
    artifacts (JSON/CSV) stay traceback-free, and folding tolerates
    rows journaled before the field existed."""

    BAD = Scenario(family="no-such-family", size=4, seed=0)

    def test_error_row_captures_traceback(self):
        from repro.experiments.campaign import run_scenario

        row = run_scenario(self.BAD)
        assert row.error is not None
        assert row.trace is not None
        assert "Traceback (most recent call last)" in row.trace
        # The trace ends with the same exception the error column names.
        assert row.error.split(":")[0] in row.trace

    def test_successful_row_has_no_trace(self):
        from repro.experiments.campaign import run_scenario

        row = run_scenario(Scenario(family="star", size=4, seed=0))
        assert row.error is None
        assert row.trace is None

    def test_trace_survives_the_journal_roundtrip(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_campaign([self.BAD], journal_path=journal)
        folded = fold_journal(journal)
        (record,) = folded.values()
        assert record.row.trace is not None
        assert "Traceback" in record.row.trace

    def test_fold_tolerates_pre_v5_rows_without_trace(self, tmp_path):
        """A v4 journal row (no ``trace`` key) folds cleanly with the
        field defaulting to None — and unknown future fields drop."""
        journal = tmp_path / "old.jsonl"
        run_campaign([Scenario(family="star", size=4, seed=0)],
                     journal_path=journal)
        lines = journal.read_text().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record.get("kind") == "result":
                record["row"].pop("trace", None)
                record["row"]["from_the_future"] = 42
            doctored.append(json.dumps(record))
        journal.write_text("\n".join(doctored) + "\n")
        folded = fold_journal(journal)
        (record,) = folded.values()
        assert record.row.trace is None
        assert record.row.family == "star"

    def test_summary_artifacts_exclude_traces(self, tmp_path):
        from repro.experiments.campaign import run_campaign as run

        summary = run([self.BAD])
        data = summary.to_dict()
        assert all("trace" not in row for row in data["rows"])
        csv_path = summary.write_csv(tmp_path / "rows.csv")
        header = csv_path.read_text().splitlines()[0]
        assert "trace" not in header
