"""Unit tests for the global-prompt oscillating model (§4.1)."""

import pytest

from repro.experiments import OscillatingGlobalModel
from repro.lightyear import check_global_no_transit


@pytest.fixture()
def model(star7):
    return OscillatingGlobalModel(star7)


class TestStrategies:
    def test_starts_with_as_path_strategy(self, model):
        assert model.current_strategy == "as-path-regex"

    def test_feedback_flips_strategy(self, model):
        model.feedback("counterexample")
        assert model.current_strategy == "deny-at-customer"
        model.feedback("counterexample")
        assert model.current_strategy == "as-path-regex"

    def test_as_path_strategy_fails_globally(self, model, star7):
        configs = model.generate()
        check = check_global_no_transit(configs, star7.topology)
        assert not check.holds
        assert check.transit_violations

    def test_customer_deny_strategy_also_fails(self, model, star7):
        model.feedback("x")
        configs = model.generate()
        check = check_global_no_transit(configs, star7.topology)
        assert not check.holds
        assert check.transit_violations

    def test_strategies_differ_structurally(self, model):
        first = model.generate()["R1"]
        model.feedback("x")
        second = model.generate()["R1"]
        assert "DENY_ISP_TO_CUSTOMER" not in first.route_maps
        assert "DENY_ISP_TO_CUSTOMER" in second.route_maps
        assert "1" in first.as_path_lists

    def test_history_recorded(self, model):
        model.generate()
        model.feedback("x")
        model.generate()
        assert model.strategy_history == ["as-path-regex", "deny-at-customer"]

    def test_strategy_configs_are_syntax_clean(self, model):
        """Per §4.1, oscillation happens *after* topology and syntax
        errors are fixed — the strategies must be well-formed."""
        from repro.cisco import generate_cisco, parse_cisco

        for _ in range(2):
            configs = model.generate()
            for name, config in configs.items():
                rendered = generate_cisco(config)
                assert not parse_cisco(rendered).warnings, name
            model.feedback("x")


class TestDerivedDeltas:
    """The global re-check derives each round's delta from the drafts."""

    def test_rounds_resimulate_incrementally(self, star7):
        from repro.lightyear.compose import IncrementalGlobalChecker

        model = OscillatingGlobalModel(star7)
        checker = IncrementalGlobalChecker()
        first = model.generate()
        check_global_no_transit(first, star7.topology, checker=checker)
        assert checker.last_stats.mode == "full"  # cold start
        model.feedback("x")
        second = model.generate()
        check_global_no_transit(second, star7.topology, checker=checker)
        assert checker.last_stats.incremental
        # every router whose draft differs, and no other
        rewritten = {name for name in second if second[name] != first[name]}
        assert "R1" in rewritten
        assert checker.last_stats.dirty_routers == len(rewritten)
