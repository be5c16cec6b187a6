"""Tests for the experiment drivers (the table/figure generators)."""


import pytest

from repro.experiments import (
    run_local_vs_global,
    run_no_transit_experiment,
    run_scaling_sweep,
    run_synthesis_ablation,
    run_translation_ablation,
    run_translation_experiment,
)


class TestTranslationExperiment:
    def test_default_run_verifies(self):
        experiment = run_translation_experiment(seed=0)
        assert experiment.result.verified

    def test_leverage_in_paper_band(self):
        """§3.2 reports ~10X; accept the seeded band around it."""
        experiment = run_translation_experiment(seed=0)
        assert 2 <= experiment.human_prompts <= 4
        assert 10 <= experiment.automated_prompts <= 30
        assert 4.0 <= experiment.leverage <= 15.0

    def test_table2_contains_all_eight_rows(self):
        experiment = run_translation_experiment(seed=0)
        rows = {row.error: row for row in experiment.table2_rows()}
        assert len(rows) >= 8

    def test_table2_no_rows_match_paper(self):
        """'Different prefix lengths' and 'redistribution' must be the
        rows the generated prompt could NOT fix."""
        experiment = run_translation_experiment(seed=0)
        rows = {row.error: row for row in experiment.table2_rows()}
        assert not rows["Different prefix lengths match in BGP"].fixed_by_generated_prompt
        assert not rows["Different redistribution into BGP"].fixed_by_generated_prompt
        assert rows["Setting wrong BGP MED value"].fixed_by_generated_prompt
        assert rows["Different OSPF link cost"].fixed_by_generated_prompt

    def test_row_render(self):
        experiment = run_translation_experiment(seed=0)
        rendered = experiment.table2_rows()[0].render()
        assert rendered.endswith(("Yes", "No"))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_other_seeds_verify(self, seed):
        experiment = run_translation_experiment(seed=seed)
        assert experiment.result.verified
        assert experiment.human_prompts >= 2  # the two unfixable rows


class TestNoTransitExperiment:
    def test_default_run_verifies(self):
        experiment = run_no_transit_experiment(seed=0)
        assert experiment.result.verified
        assert experiment.result.global_check.holds

    def test_leverage_in_paper_band(self):
        """§4.2 reports 6X (12 automated / 2 human)."""
        experiment = run_no_transit_experiment(seed=0)
        assert experiment.human_prompts == 2
        assert 10 <= experiment.automated_prompts <= 22
        assert 4.0 <= experiment.leverage <= 11.0

    def test_resolutions_cover_table3_classes(self):
        experiment = run_no_transit_experiment(seed=0)
        keys = {
            key
            for model in experiment.models.values()
            for key, _ in model.resolution_log
        }
        assert "wrong_router_id" in keys
        assert "missing_neighbor" in keys
        assert "and_or_semantics" in keys

    def test_initial_fault_counts(self):
        experiment = run_no_transit_experiment(seed=0)
        counts = experiment.initial_draft_fault_counts()
        assert counts["R1"] > counts["R4"]

    def test_smaller_star(self):
        experiment = run_no_transit_experiment(router_count=5, seed=0)
        assert experiment.result.verified


class TestAblations:
    def test_translation_ablation_reduces_human_effort(self):
        ablation = run_translation_ablation(seed=0)
        assert ablation.vpp_human < ablation.pair_programming_human
        assert ablation.human_effort_reduction > 2.0

    def test_synthesis_ablation_reduces_human_effort(self):
        ablation = run_synthesis_ablation(seed=0)
        assert ablation.vpp_human < ablation.pair_programming_human

    def test_render(self):
        ablation = run_translation_ablation(seed=0)
        assert "pair programming" in ablation.render()


class TestLocalVsGlobal:
    def test_global_oscillates_and_fails(self):
        result = run_local_vs_global(seed=0)
        assert not result.global_converged
        assert result.global_strategies[:2] == [
            "as-path-regex",
            "deny-at-customer",
        ]
        # Oscillation: strategies alternate.
        assert result.global_strategies[0] == result.global_strategies[2]

    def test_local_converges(self):
        result = run_local_vs_global(seed=0)
        assert result.local_converged
        assert result.local_correction_prompts > 0

    def test_render(self):
        result = run_local_vs_global(seed=0)
        text = result.render()
        assert "did NOT converge" in text
        assert "converged" in text


class TestScaling:
    def test_sweep_all_verify(self):
        points = run_scaling_sweep(sizes=(4, 6), seed=0)
        assert [p.router_count for p in points] == [4, 6]
        assert all(p.verified for p in points)

    def test_leverage_grows_with_size(self):
        """Fixed faults + more routers -> no fewer automated prompts."""
        points = run_scaling_sweep(sizes=(5, 10), seed=0)
        assert points[1].automated_prompts >= points[0].automated_prompts

    def test_render(self):
        (point,) = run_scaling_sweep(sizes=(4,), seed=0)
        assert "n= 4" in point.render()
