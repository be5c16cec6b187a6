"""The campaign ``--lint`` axis: journal v7 rows, aggregates, CSV shape.

Linting is a process-wide toggle (not a scenario key), so enabling it
must not perturb scenario identity — resume and ``--report`` keep
working against journals written either way — and campaigns that do
not lint must keep emitting byte-for-byte v6-shaped rows (the lint
keys are absent, not null).

Lint counts are memoized process-wide on the final network (the
topology's identity plus every router's draft key), so a grid lints
each distinct final network once, with the same counts as an unmemoized
run, and never hands the analyzer a pristine an IR fault would edit.
"""

import csv
import json
from types import SimpleNamespace

import pytest

import repro.analysis
from repro.cisco import generate_cisco
from repro.core import toggles
from repro.experiments.campaign import (
    JOURNAL_VERSION,
    PROFILES,
    _LINT_MEMO,
    _lint_drafts,
    build_grid,
    run_campaign,
    set_campaign_lint,
    summary_from_journals,
)
from repro.llm import BehaviorProfile, fault_designations, synthesis_fault_catalog
from repro.llm.faults import DraftState
from repro.experiments import campaign as campaign_module
from repro.symbolic.memo import reset_caches
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs

GRID_ARGS = dict(families=["star"], sizes=[4], seeds=1)


def _grid():
    return build_grid(**GRID_ARGS)


@pytest.fixture
def lint_enabled():
    set_campaign_lint(True)
    try:
        yield
    finally:
        set_campaign_lint(False)


class TestLintToggle:
    def test_default_is_off(self):
        assert campaign_module._LINT_ENABLED is False

    def test_toggle_round_trips(self, lint_enabled):
        assert campaign_module._LINT_ENABLED is True


class TestLintedCampaign:
    def test_rows_carry_lint_columns(self, tmp_path, lint_enabled):
        journal = tmp_path / "journal.jsonl"
        summary = run_campaign(_grid(), workers=1, journal_path=journal)
        for row in summary.rows:
            assert row.lint_findings is not None
            assert row.lint_high is not None
            assert row.lint_high <= row.lint_findings
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["version"] == JOURNAL_VERSION
        for line in journal.read_text().splitlines()[1:]:
            row = json.loads(line)["row"]
            assert row["lint_findings"] is not None
            assert row["lint_high"] is not None

    def test_summary_aggregates_lint(self, lint_enabled):
        summary = run_campaign(_grid(), workers=1)
        payload = summary.to_dict()
        assert payload["lint"]["scenarios"] == len(summary.rows)
        assert payload["lint"]["findings"] == sum(
            row.lint_findings for row in summary.rows
        )
        assert "lint:" in summary.render()

    def test_report_recovers_lint_from_the_journal(
        self, tmp_path, lint_enabled
    ):
        journal = tmp_path / "journal.jsonl"
        live = run_campaign(_grid(), workers=1, journal_path=journal)
        offline = summary_from_journals([str(journal)])
        assert offline.to_dict() == live.to_dict()

    def test_csv_never_carries_lint_columns(self, tmp_path, lint_enabled):
        summary = run_campaign(_grid(), workers=1)
        path = summary.write_csv(tmp_path / "out.csv")
        with path.open() as handle:
            fields = csv.DictReader(handle).fieldnames
        assert "lint_findings" not in fields
        assert "lint_high" not in fields


class TestUnlintedCampaign:
    def test_rows_stay_v6_shaped(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        summary = run_campaign(_grid(), workers=1, journal_path=journal)
        assert all(row.lint_findings is None for row in summary.rows)
        for line in journal.read_text().splitlines()[1:]:
            row = json.loads(line)["row"]
            assert "lint_findings" not in row
            assert "lint_high" not in row
        assert "lint" not in summary.to_dict()
        assert "lint:" not in summary.render()


# -- the lint memo ---------------------------------------------------------------


@pytest.fixture
def cold_memos():
    reset_caches()
    yield
    reset_caches()


@pytest.fixture
def stubborn(monkeypatch):
    """A profile that never fixes a fault, so final drafts stay faulted
    and lint with findings."""
    monkeypatch.setitem(PROFILES, "stubborn", BehaviorProfile.never_fix())


@pytest.fixture
def analyzer_inputs(monkeypatch):
    """The ``(configs, texts)`` of every analyzer run."""
    inputs = []
    original = repro.analysis.analyze_configs

    def recording(configs, topology=None, texts=None):
        inputs.append((configs, texts))
        return original(configs, topology=topology, texts=texts)

    monkeypatch.setattr(repro.analysis, "analyze_configs", recording)
    return inputs


def _distinct_texts(inputs):
    return {tuple(sorted(texts.items())) for _configs, texts in inputs}


def _lint_counts(summary):
    return [
        (row.family, row.seed, row.profile, row.lint_findings, row.lint_high)
        for row in summary.rows
    ]


class TestLintMemo:
    def test_each_distinct_final_network_lints_once(
        self, lint_enabled, cold_memos, stubborn, analyzer_inputs
    ):
        # Every seed of a hand-shaped cell shares one network.
        grid = build_grid(
            ["star"], [5], seeds=3, profiles=("default", "stubborn")
        )
        with toggles.scoped(memoization=False):
            run_campaign(grid, workers=1)
        distinct = len(_distinct_texts(analyzer_inputs))
        assert len(analyzer_inputs) == len(grid)
        assert 1 < distinct < len(grid)
        reset_caches()
        analyzer_inputs.clear()
        run_campaign(grid, workers=1)
        assert len(analyzer_inputs) == distinct
        assert len(_distinct_texts(analyzer_inputs)) == distinct
        assert _LINT_MEMO.misses == distinct
        assert _LINT_MEMO.hits == len(grid) - distinct

    def test_counts_match_an_unmemoized_campaign(
        self, lint_enabled, cold_memos, stubborn
    ):
        grid = build_grid(
            ["star", "ring"], [5], seeds=2,
            profiles=("default", "sloppy", "stubborn"),
        )
        memoized = run_campaign(grid, workers=1)
        assert _LINT_MEMO.hits > 0
        with toggles.scoped(memoization=False):
            unmemoized = run_campaign(grid, workers=1)
        assert _lint_counts(memoized) == _lint_counts(unmemoized)
        assert any(row.lint_high for row in memoized.rows)


@pytest.fixture(scope="module")
def star():
    topology = generate_network("star", 5).topology
    catalog = synthesis_fault_catalog(topology)
    by_router = {}
    for key, router in fault_designations(topology).items():
        by_router.setdefault(router, []).append(catalog[key])
    return topology, build_reference_configs(topology), by_router


def _ir_and_text_fault(faults):
    ir = next(fault for fault in faults if fault.ir_transform is not None)
    text = next(fault for fault in faults if fault.text_transform is not None)
    return ir, text


class TestDraftKey:
    def test_different_faults_give_distinct_keys(self, star):
        _topology, references, by_router = star
        ir, text = _ir_and_text_fault(by_router["R1"])
        first = DraftState(references["R1"], generate_cisco)
        second = DraftState(references["R1"], generate_cisco)
        assert first.key == second.key
        first.inject(ir)
        second.inject(text)
        assert first.key != second.key

    def test_fault_order_is_part_of_the_key(self, star):
        _topology, references, by_router = star
        ir, text = _ir_and_text_fault(by_router["R1"])
        first = DraftState(references["R1"], generate_cisco)
        second = DraftState(references["R1"], generate_cisco)
        first.inject(ir)
        first.inject(text)
        second.inject(text)
        second.inject(ir)
        assert first.key != second.key


class TestLintInput:
    def test_ir_faulted_drafts_lint_on_a_copy(
        self, star, cold_memos, analyzer_inputs
    ):
        topology, references, by_router = star
        ir, text = _ir_and_text_fault(by_router["R1"])
        drafts = {
            name: DraftState(references[name], generate_cisco)
            for name in references
        }
        drafts["R1"].inject(ir)
        drafts["R2"].inject(text)
        experiment = SimpleNamespace(
            network=SimpleNamespace(topology=topology),
            models={
                name: SimpleNamespace(draft=draft)
                for name, draft in drafts.items()
            },
        )
        findings, high = _lint_drafts(experiment)
        assert high > 0
        [(handed, _texts)] = analyzer_inputs
        assert handed["R1"] is not references["R1"]
        assert generate_cisco(handed["R1"]) != generate_cisco(references["R1"])
        # Text faults leave the IR alone: clean IR is the shared pristine.
        assert handed["R2"] is references["R2"]
        for name in set(references) - {"R1", "R2"}:
            assert handed[name] is references[name]
        # The same final network hits without running the analyzer.
        assert _lint_drafts(experiment) == (findings, high)
        assert len(analyzer_inputs) == 1
