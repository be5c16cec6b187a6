"""Tests for the shared error taxonomy and parse diagnostics."""

from repro.errors import ErrorCategory, Finding
from repro.netmodel.diagnostics import Diagnostics, ParseStatus, ParseWarning


class TestFinding:
    def test_detail_carried(self):
        detail = object()
        finding = Finding(
            category=ErrorCategory.SEMANTIC, message="m", detail=detail
        )
        assert finding.detail is detail


class TestDiagnostics:
    def test_warn_accumulates(self):
        diagnostics = Diagnostics(filename="f.cfg")
        diagnostics.warn(3, " bad line ", "comment")
        (warning,) = diagnostics.warnings
        assert warning.line == 3
        assert warning.text == "bad line"  # stripped

    def test_status_transitions(self):
        diagnostics = Diagnostics()
        assert diagnostics.status is ParseStatus.PASSED
        diagnostics.warn(1, "x", "y")
        assert diagnostics.status is ParseStatus.PARTIALLY_UNRECOGNIZED

    def test_clear(self):
        diagnostics = Diagnostics()
        diagnostics.warn(1, "x", "y")
        diagnostics.clear()
        assert diagnostics.status is ParseStatus.PASSED

    def test_render_with_filename(self):
        warning = ParseWarning("r1.cfg", 7, "line", "oops")
        assert warning.render() == "[r1.cfg:7] oops: 'line'"

    def test_render_without_filename(self):
        warning = ParseWarning("", 7, "line", "oops")
        assert "line 7" in warning.render()
