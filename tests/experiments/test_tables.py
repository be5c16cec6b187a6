"""Tests for the table renderers and sample-prompt harvesting."""

import re

from repro.experiments.prompts import (
    sample_synthesis_prompts,
    sample_translation_prompts,
)
from repro.experiments.tables import (
    render_figure4,
    render_leverage_no_transit,
    render_leverage_translation,
    render_local_vs_global,
    render_scaling,
    render_table1,
    render_table2,
    render_table3,
    render_vpp_ablation,
)


class TestSamplePrompts:
    def test_translation_covers_four_classes(self):
        stages = [stage for stage, _ in sample_translation_prompts(seed=0)]
        assert stages == ["syntax", "structural", "attribute", "policy"]

    def test_synthesis_covers_three_classes(self):
        stages = [stage for stage, _ in sample_synthesis_prompts(seed=0)]
        assert stages == ["syntax", "topology", "semantic"]

    def test_prompts_carry_spliced_fields(self):
        prompts = dict(sample_translation_prompts(seed=0))
        assert "2.3.4.5" in prompts["structural"] or "1.2.3.9" in prompts["structural"]
        assert "Loopback0" in prompts["attribute"]

    def test_every_syntax_prompt_names_a_syntax_error(self):
        from repro.core.leverage import PromptKind
        from repro.experiments import run_translation_experiment

        experiment = run_translation_experiment(seed=0)
        syntax = [
            record.text
            for record in experiment.result.prompt_log.records
            if record.kind is PromptKind.AUTOMATED and record.stage == "syntax"
        ]
        assert syntax
        assert all("syntax error" in prompt for prompt in syntax)


class TestRenderers:
    def test_table1_sections(self):
        text = render_table1(seed=0)
        assert text.startswith("Table 1")
        assert "[syntax]" in text

    def test_table2_column_header(self):
        text = render_table2(seed=0)
        assert "Error" in text and "Fixed" in text

    def test_table3_paper_phrasing(self):
        text = render_table3(seed=0)
        assert "However, they should be denied." in text

    def test_leverage_lines_mention_paper_targets(self):
        assert "10X" in render_leverage_translation(seed=0)
        assert "6X" in render_leverage_no_transit(seed=0)

    def test_vpp_ablation_covers_both_tasks(self):
        lines = render_vpp_ablation(seed=0).splitlines()
        assert lines[0] == "Figure 1 vs Figure 2: pair programming vs VPP"
        assert lines[2].startswith("translation: pair programming needed")
        assert lines[3].startswith("no-transit synthesis: pair programming needed")

    def test_local_vs_global_shows_only_local_converging(self):
        text = render_local_vs_global(seed=0)
        assert "global spec: did NOT converge" in text
        assert "local specs: converged" in text

    def test_scaling_rows_all_verify(self):
        rows = render_scaling(seed=0).splitlines()[2:]
        sizes = [int(re.match(r"n=\s*(\d+)", row).group(1)) for row in rows]
        assert sizes == [4, 5, 6, 7, 8, 10]
        assert all(row.endswith("verified=True") for row in rows)

    def test_figure4_structure(self):
        text = render_figure4(router_count=5)
        assert "routers: 5" in text
        assert "links: 4" in text
        assert "external peers: 5" in text
