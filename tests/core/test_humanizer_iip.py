"""Tests for the humanizer and the IIP database."""

import pytest

from repro.core import (
    DEFAULT_IIP_IDS,
    Humanizer,
    IIPDatabase,
    finding_from_warning,
)
from repro.errors import ErrorCategory, Finding
from repro.netmodel.diagnostics import ParseWarning


class TestHumanizer:
    def _finding(self, category, message="something is off"):
        return Finding(category=category, message=message)

    def test_syntax_formula_from_warning(self):
        warning = ParseWarning(
            filename="x.conf",
            line=3,
            text="policy-options prefix-list our-networks 1.2.3.0/24-32",
            comment="There is a syntax error",
        )
        finding = finding_from_warning(warning)
        prompt = Humanizer().humanize(finding)
        assert prompt.startswith(
            "There is a syntax error: "
            "'policy-options prefix-list our-networks 1.2.3.0/24-32'"
        )
        assert "Print the entire corrected configuration." in prompt

    def test_syntax_without_warning_detail(self):
        prompt = Humanizer().humanize(self._finding(ErrorCategory.SYNTAX))
        assert "syntax error" in prompt

    def test_campion_findings_pass_through(self):
        for category in (
            ErrorCategory.STRUCTURAL,
            ErrorCategory.ATTRIBUTE,
            ErrorCategory.POLICY,
        ):
            prompt = Humanizer().humanize(self._finding(category, "X differs"))
            assert prompt.startswith("X differs")
            assert "fix the translation" in prompt

    def test_topology_formula(self):
        prompt = Humanizer().humanize(
            self._finding(ErrorCategory.TOPOLOGY, "Network 1.0.0.0/24 not declared")
        )
        assert "matches the given topology" in prompt

    def test_semantic_formula(self):
        prompt = Humanizer().humanize(
            self._finding(ErrorCategory.SEMANTIC, "route-map leaks.")
        )
        assert "local policy" in prompt

    def test_finding_from_warning_sets_router(self):
        warning = ParseWarning("f", 1, "text", "comment")
        finding = finding_from_warning(warning, router="R3")
        assert finding.router == "R3"
        assert finding.category is ErrorCategory.SYNTAX


class TestIIPDatabase:
    def test_builtin_iips_present(self):
        database = IIPDatabase()
        assert database.compose_preamble(DEFAULT_IIP_IDS).count("\n- ") == 4

    def test_four_paper_iips(self):
        assert len(DEFAULT_IIP_IDS) == 4

    def test_compose_preamble_contains_texts(self):
        preamble = IIPDatabase().compose_preamble(DEFAULT_IIP_IDS)
        assert "additive" in preamble
        assert "community list" in preamble
        assert "configure terminal" in preamble

    def test_compose_subset(self):
        preamble = IIPDatabase().compose_preamble(["additive-keyword"])
        assert "additive" in preamble
        assert "community list that contains" not in preamble

    def test_compose_empty(self):
        assert IIPDatabase().compose_preamble([]) == ""

    def test_unknown_iip_raises(self):
        with pytest.raises(KeyError):
            IIPDatabase().compose_preamble(["ghost"])
