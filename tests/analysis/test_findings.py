"""Findings container: ordering, counting, serialization determinism."""

from repro.analysis import Finding, LintReport, Severity


def _finding(**overrides):
    base = dict(
        rule="unused-list",
        severity=Severity.LOW,
        router="R1",
        ref="prefix-list PL",
        message="never referenced",
    )
    base.update(overrides)
    return Finding(**base)


class TestSeverity:
    def test_rank_orders_high_first(self):
        assert Severity.HIGH.rank < Severity.MEDIUM.rank < Severity.LOW.rank


class TestFinding:
    def test_site_includes_clause_and_line(self):
        finding = _finding(clause_seq=20, line=7)
        assert finding.site() == "R1 prefix-list PL seq 20 line 7"

    def test_describe_mentions_fix_hint(self):
        finding = _finding(fix_hint="delete it")
        assert "(fix: delete it)" in finding.describe()

    def test_to_dict_round_trips_severity_as_string(self):
        assert _finding().to_dict()["severity"] == "low"


class TestLintReport:
    def test_sort_is_severity_major(self):
        report = LintReport()
        report.add(_finding(rule="b-low", severity=Severity.LOW))
        report.add(_finding(rule="a-high", severity=Severity.HIGH))
        report.add(_finding(rule="c-medium", severity=Severity.MEDIUM))
        report.sort()
        assert [item.rule for item in report] == [
            "a-high", "c-medium", "b-low",
        ]

    def test_sort_breaks_ties_by_router_then_rule(self):
        report = LintReport()
        report.add(_finding(router="R2", rule="a"))
        report.add(_finding(router="R1", rule="b"))
        report.add(_finding(router="R1", rule="a"))
        report.sort()
        assert [(item.router, item.rule) for item in report] == [
            ("R1", "a"), ("R1", "b"), ("R2", "a"),
        ]

    def test_serialization_is_insertion_order_independent(self):
        first = LintReport()
        second = LintReport()
        items = [
            _finding(rule="x", severity=Severity.HIGH),
            _finding(rule="y", severity=Severity.LOW, router="R3"),
            _finding(rule="z", severity=Severity.MEDIUM, clause_seq=10),
        ]
        for item in items:
            first.add(item)
        for item in reversed(items):
            second.add(item)
        assert first.to_dict() == second.to_dict()
        assert first.render_text() == second.render_text()

    def test_counts(self):
        report = LintReport()
        report.add(_finding(severity=Severity.HIGH))
        report.add(_finding(severity=Severity.HIGH, router="R2"))
        report.add(_finding(severity=Severity.LOW))
        assert report.high == 2
        assert report.count(Severity.LOW) == 1
        assert report.to_dict()["counts"] == {
            "total": 3, "high": 2, "medium": 0, "low": 1,
        }

    def test_by_rule_and_for_router(self):
        report = LintReport()
        report.add(_finding(rule="a"))
        report.add(_finding(rule="a", router="R2"))
        report.add(_finding(rule="b"))
        assert report.by_rule() == {"a": 2, "b": 1}
        assert len(report.for_router("R2")) == 1

    def test_extend_accepts_reports_and_lists(self):
        report = LintReport()
        other = LintReport()
        other.add(_finding())
        report.extend(other)
        report.extend([_finding(router="R2")])
        assert len(report) == 2
