"""Campaign-level observability: journal v6 metrics, traces, profiles.

The invariants under test:

* every scenario's registry delta rides its journal row (and survives
  ``--resume`` / ``--report``), while the deterministic artifacts
  (``to_dict`` / JSON / CSV) stay metric-free — byte-identity first;
* ``--trace`` writes a valid Chrome trace whose ``scenario`` spans
  cover (essentially all of) the per-scenario wall-clock;
* ``render_profile`` folds the merged metrics into phase/cache/slowest
  breakdowns.
"""

import json

from repro.cli import main
from repro.experiments.campaign import (
    build_grid,
    run_campaign,
    summary_from_journals,
)
from repro.obs import validate_trace_file

GRID_ARGS = dict(families=["star", "chain"], sizes=[4], seeds=1)


def _grid():
    return build_grid(**GRID_ARGS)


class TestJournalMetrics:
    def test_rows_carry_metrics_and_artifacts_do_not(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        summary = run_campaign(_grid(), workers=1, journal_path=journal)
        assert summary.metrics["phase.scenario.count"] == len(_grid())
        assert summary.metrics["phase.synthesize.count"] == len(_grid())
        # Memo lookups land on hits or misses depending on how warm the
        # process already is; either way the series must be shipped.
        assert any(name.startswith("memo.") for name in summary.metrics)
        for line in journal.read_text().splitlines()[1:]:
            record = json.loads(line)
            assert record["metrics"]["phase.scenario.count"] == 1
        # The deterministic artifact stays metric-free.
        assert "metrics" not in summary.to_dict()
        out = summary.write_json(tmp_path / "out.json")
        assert "metrics" not in json.loads(out.read_text())

    def test_report_recovers_metrics_from_the_journal(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        live = run_campaign(_grid(), workers=1, journal_path=journal)
        offline = summary_from_journals([str(journal)])
        assert offline.metrics == live.metrics
        assert offline.to_dict() == live.to_dict()

    def test_resume_folds_journaled_and_fresh_metrics(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        partial = run_campaign(
            _grid(), workers=1, journal_path=journal, limit=1
        )
        assert partial.metrics["phase.scenario.count"] == 1
        resumed = run_campaign(
            _grid(), workers=1, journal_path=journal, resume=True
        )
        assert resumed.metrics["phase.scenario.count"] == len(_grid())

    def test_parallel_workers_ship_their_deltas_home(self, tmp_path):
        # Fresh worker processes start cold, so their shipped deltas
        # must carry real route/cache/simulation activity even though
        # the parent process never touched its own counters.
        parallel = run_campaign(_grid(), workers=2)
        assert parallel.metrics["phase.scenario.count"] == len(_grid())
        assert parallel.metrics["phase.synthesize.count"] == len(_grid())
        converges = (
            parallel.metrics.get("sim.full_converge.count", 0)
            + parallel.metrics.get("sim.incremental_converge.count", 0)
        )
        assert converges >= len(_grid())
        assert any(name.startswith("memo.") for name in parallel.metrics)


class TestTraces:
    def test_trace_file_is_valid_and_covers_scenario_wallclock(
        self, tmp_path
    ):
        trace = tmp_path / "trace.json"
        summary = run_campaign(_grid(), workers=1, trace_path=trace)
        n_events, n_tracks = validate_trace_file(str(trace))
        assert n_events > 0 and n_tracks >= 1
        events = json.loads(trace.read_text())["traceEvents"]
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        assert len(by_name["scenario"]) == len(_grid())
        assert "synthesize" in by_name and "converge" in by_name
        spanned_s = sum(e["dur"] for e in by_name["scenario"]) / 1e6
        measured_s = sum(row.duration_s for row in summary.rows)
        assert spanned_s >= 0.95 * measured_s

    def test_parallel_trace_merges_worker_events(self, tmp_path):
        trace = tmp_path / "trace.json"
        run_campaign(_grid(), workers=2, trace_path=trace)
        events = json.loads(trace.read_text())["traceEvents"]
        scenario_events = [e for e in events if e["name"] == "scenario"]
        assert len(scenario_events) == len(_grid())
        assert validate_trace_file(str(trace))[0] == len(events)

    def test_tracing_is_off_again_after_the_run(self, tmp_path):
        from repro.obs import drain_events, tracing_enabled

        run_campaign(_grid(), workers=1, trace_path=tmp_path / "t.json")
        assert not tracing_enabled()
        assert drain_events() == []


class TestProfileRendering:
    def test_render_profile_sections(self, tmp_path):
        summary = run_campaign(_grid(), workers=1)
        profile = summary.render_profile(top=1)
        assert "phase breakdown:" in profile
        assert "scenario" in profile and "converge" in profile
        assert "slowest 1 scenario(s):" in profile
        assert "cache hit rates:" in profile
        assert "draft-finding" in profile

    def test_cache_and_phase_breakdowns(self):
        summary = run_campaign(_grid(), workers=1)
        caches = dict(
            (name, (hits, misses))
            for name, hits, misses in summary.cache_breakdown()
        )
        assert "draft-finding" in caches
        phases = {name for name, *_ in summary.phase_breakdown()}
        assert {"scenario", "synthesize", "converge"} <= phases

    def test_cli_profile_flag_works_offline(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        run_campaign(_grid(), workers=1, journal_path=journal)
        code = main([
            "campaign", "--report", str(journal),
            "--json", "-", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign profile:" in out
        assert "cache hit rates:" in out

    def test_cli_trace_conflicts_with_report(self, capsys):
        code = main([
            "campaign", "--report", "-", "--trace", "t.json",
        ])
        assert code == 2
        assert "--trace" in capsys.readouterr().err
