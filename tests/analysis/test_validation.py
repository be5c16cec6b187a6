"""Simulator-grounded validation harness, tier-1 sized.

The full nine-cell run is the CI gate (``repro lint --validate``);
here a two-cell subset — one hand-shaped, one seeded border cell —
keeps the same invariants under tier 1: clean references produce zero
findings, and every applicable catalog fault is detected at its
injection site.  The full run must also serialize to the checked-in
report byte for byte, as the CI gate compares it.
"""

import json
from pathlib import Path

from repro.analysis.validation import (
    CELLS,
    EXPECTED_RULES,
    cell_id,
    run_validation,
)
from repro.analysis import RULES
from repro.llm.synthesis_faults import synthesis_fault_catalog
from repro.topology.families import generate_network

SUBSET = [
    ("star", 7, {}),
    ("random", 8, {"seed": 1, "roles": "c2i2h2"}),
]


class TestSubsetGate:
    def test_subset_passes_the_gate(self):
        report = run_validation(SUBSET)
        assert report.cells == [cell_id(*cell) for cell in SUBSET]
        # Precision: the simulator-verified references are clean — not
        # just zero HIGH, zero findings of any severity.
        assert report.clean_findings == 0
        assert report.clean_high == 0
        # Recall: every applicable injected fault detected at its site.
        assert report.applicable > 0
        assert report.missed == []
        assert report.recall == 1.0
        assert report.ok

    def test_report_serializes_and_renders(self):
        report = run_validation([("star", 7, {})])
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["clean"]["high"] == 0
        assert payload["faults"]["detected"] == payload["faults"]["applicable"]
        text = report.render_text()
        assert "gate: PASS" in text


class TestHarnessWiring:
    def test_expected_rules_cover_the_catalog(self):
        topology = generate_network("random", 8, seed=1, roles="c2i2h2").topology
        catalog = synthesis_fault_catalog(topology)
        assert set(EXPECTED_RULES) == set(catalog)

    def test_expected_rules_exist(self):
        for rules in EXPECTED_RULES.values():
            for rule in rules:
                assert rule in RULES, rule

    def test_cell_grid_is_the_canonical_nine(self):
        assert len(CELLS) == 9
        assert len({cell_id(*cell) for cell in CELLS}) == 9


class TestCheckedInReport:
    def test_full_run_matches_the_checked_in_report(self):
        report = run_validation()
        checked_in = (
            Path(__file__).resolve().parents[2] / "reports" / "lint_validation.json"
        )
        assert len(report.cells) == 9
        assert json.dumps(report.to_dict(), indent=2) + "\n" == (
            checked_in.read_text()
        )
