"""Tests for the VPP orchestrators."""

import math
from collections import Counter

import pytest

from repro.cisco import generate_cisco
from repro.core import (
    DEFAULT_IIP_IDS,
    LoopLimits,
    ScriptedHuman,
    SynthesisOrchestrator,
    TranslationOrchestrator,
)
from repro.core import orchestrator, toggles
from repro.core.leverage import PromptKind
from repro.experiments.campaign import build_grid, run_campaign, set_campaign_lint
from repro.llm import (
    BehaviorProfile,
    make_synthesis_models,
    make_translation_model,
    synthesis_fault_catalog,
    translation_fault_catalog,
)
from repro.sampleconfigs import load_translation_source
from repro.symbolic.memo import reset_caches
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs


def _translation_run(seed=0, profile=None, limits=None, faults=None, human=True):
    source = load_translation_source()
    kwargs = {"seed": seed, "profile": profile}
    if faults is not None:
        kwargs["initial_faults"] = faults
    model = make_translation_model(**kwargs)
    agent = ScriptedHuman(translation_fault_catalog()) if human else None
    orchestrator = TranslationOrchestrator(
        source, model, human=agent, limits=limits
    )
    return orchestrator.run(), model


class TestTranslationOrchestrator:
    def test_full_run_verifies(self):
        result, _ = _translation_run()
        assert result.verified

    def test_clean_model_needs_no_corrections(self):
        result, _ = _translation_run(faults=())
        assert result.verified
        assert result.prompt_log.automated == 0
        assert result.prompt_log.human == 0
        assert math.isinf(result.prompt_log.leverage())

    def test_single_fixable_fault_one_prompt(self):
        result, _ = _translation_run(
            faults=("wrong_med",), profile=BehaviorProfile.always_fix()
        )
        assert result.verified
        assert result.prompt_log.automated == 1
        assert result.prompt_log.human == 0

    def test_unfixable_fault_punts_to_human(self):
        result, model = _translation_run(
            faults=("redistribution_unguarded",),
            profile=BehaviorProfile.always_fix(),
        )
        assert result.verified
        assert result.prompt_log.human == 1
        assert result.transcript.punts() == 1
        assert model.resolution_log == [("redistribution_unguarded", "human")]

    def test_never_fix_model_abandons(self):
        limits = LoopLimits(attempts_per_finding=2, max_correction_prompts=10)
        result, _ = _translation_run(
            faults=("wrong_med",),
            profile=BehaviorProfile.never_fix(),
            limits=limits,
            human=False,
        )
        assert not result.verified
        assert [e.kind for e in result.transcript.events].count("abandoned") == 1

    def test_findings_seen_recorded(self):
        result, _ = _translation_run(
            faults=("wrong_med",), profile=BehaviorProfile.always_fix()
        )
        assert len(result.findings_seen) == 1

    def test_initial_prompt_logged(self):
        result, _ = _translation_run(faults=())
        kinds = [r.kind for r in result.prompt_log.records]
        assert kinds == [PromptKind.INITIAL]

    def test_syntax_handled_before_semantics(self):
        result, _ = _translation_run(
            faults=("wrong_med", "stray_statement"),
            profile=BehaviorProfile.always_fix(),
        )
        stages = [
            record.stage
            for record in result.prompt_log.records
            if record.kind is PromptKind.AUTOMATED
        ]
        assert stages == ["syntax", "policy"]


class TestSynthesisOrchestrator:
    def _run(self, star7, assignment=None, iips=DEFAULT_IIP_IDS, profile=None):
        models = make_synthesis_models(
            star7.topology, iip_ids=iips, seed=0, profile=profile,
            assignment=assignment,
        )
        human = ScriptedHuman(synthesis_fault_catalog(star7.topology))
        orchestrator = SynthesisOrchestrator(
            star7.topology, models, human=human, iip_ids=iips
        )
        return orchestrator.run(), models

    def test_full_run_verifies(self, star7):
        result, _ = self._run(star7)
        assert result.verified
        assert result.global_check.holds

    def test_owned_checker_goes_incremental_across_runs(self, star7):
        """With an owned checker, a repeat run over unchanged texts
        re-simulates an empty derived delta incrementally."""
        from repro.lightyear.compose import IncrementalGlobalChecker

        checker = IncrementalGlobalChecker()
        models = make_synthesis_models(star7.topology, seed=0)
        human = ScriptedHuman(synthesis_fault_catalog(star7.topology))
        orchestrator = SynthesisOrchestrator(
            star7.topology, models, human=human,
            iip_ids=DEFAULT_IIP_IDS, global_checker=checker,
        )
        first = orchestrator.run()
        assert first.global_check.holds
        assert checker.last_stats.mode == "full"
        # fresh models, same seed -> byte-identical final texts
        orchestrator._models = make_synthesis_models(star7.topology, seed=0)
        second = orchestrator.run()
        assert second.global_check.holds
        assert checker.last_stats.incremental
        assert checker.last_stats.dirty_routers == 0
        assert checker.last_stats.evaluations == 0

    def test_clean_assignment_needs_no_corrections(self, star7):
        assignment = {name: [] for name in star7.topology.router_names()}
        result, _ = self._run(star7, assignment=assignment)
        assert result.verified
        assert result.prompt_log.automated == 0

    def test_router_texts_parse_as_final_configs(self, star7):
        from repro.cisco import parse_cisco

        result, _ = self._run(star7)
        assert set(result.router_texts) == set(star7.topology.router_names())
        for name, text in result.router_texts.items():
            assert not parse_cisco(text).warnings, name

    def test_initial_prompts_one_per_router(self, star7):
        result, _ = self._run(star7)
        assert result.prompt_log.initial == 7

    def test_iip_preamble_included(self, star7):
        result, models = self._run(star7)
        first_prompt = models["R1"].transcript.messages[0].content
        assert "Follow these instructions" in first_prompt
        assert "additive" in first_prompt

    def test_without_iips_more_syntax_prompts(self, star7):
        with_iips, _ = self._run(star7, profile=BehaviorProfile.always_fix())
        without_iips, _ = self._run(
            star7, iips=(), profile=BehaviorProfile.always_fix()
        )
        with_syntax = with_iips.prompt_log.by_stage().get("syntax", 0)
        without_syntax = without_iips.prompt_log.by_stage().get("syntax", 0)
        assert without_syntax > with_syntax
        assert without_iips.verified

    def test_two_human_prompts_on_default_run(self, star7):
        """The paper's synthesis cycle: exactly the AND/OR and misplaced-
        neighbor problems need the human (default seed)."""
        result, models = self._run(star7)
        assert result.prompt_log.human == 2
        human_fixes = [
            (key, how)
            for model in models.values()
            for key, how in model.resolution_log
            if how == "human"
        ]
        assert sorted(key for key, _ in human_fixes) == [
            "and_or_semantics",
            "misplaced_neighbor_command",
        ]


class TestFindingMemo:
    """One ``draft-finding`` memo answers repeated checks in both loops."""

    @pytest.fixture(autouse=True)
    def _cold_memos(self):
        reset_caches()
        yield
        reset_caches()

    def test_same_router_and_text_under_two_topologies(self):
        chain = generate_network("chain", 4).topology
        ring = generate_network("ring", 4).topology
        # chain-4's R1 has one link; ring-4's R1 has two, so the same
        # text is clean under one topology and wrong under the other.
        text = generate_cisco(build_reference_configs(chain)["R1"])

        def findings():
            return [
                SynthesisOrchestrator(topology, {})._next_finding("R1", text)
                for topology in (chain, ring, chain, ring)
            ]

        with toggles.scoped(memoization=False):
            expected = findings()
        assert expected[0] is None
        assert expected[1] is not None
        assert findings() == expected
        assert orchestrator._FINDING_MEMO.hits == 2

    def test_linted_grid_verifies_each_distinct_draft_once(self, monkeypatch):
        current = []
        owners = []
        topology_checks = Counter()
        next_finding = SynthesisOrchestrator._next_finding
        verify_topology = orchestrator.verify_topology

        def tracking(self, router_name, text):
            # Holding every topology keeps its id from being reused.
            owners.append(self._topology)
            current.append((id(self._topology), router_name, text))
            try:
                return next_finding(self, router_name, text)
            finally:
                current.pop()

        def counting(config, spec):
            topology_checks[current[-1]] += 1
            return verify_topology(config, spec)

        monkeypatch.setattr(SynthesisOrchestrator, "_next_finding", tracking)
        monkeypatch.setattr(orchestrator, "verify_topology", counting)
        grid = build_grid(
            ("star", "chain"), (4, 6), 1, profiles=("default", "sloppy")
        )
        set_campaign_lint(True)
        try:
            summary = run_campaign(grid, workers=1)
        finally:
            set_campaign_lint(False)
        assert all(row.error is None for row in summary.rows)
        assert topology_checks
        assert max(topology_checks.values()) == 1
        assert len(owners) > len(topology_checks)

    def test_synthesis_run_is_identical_without_memoization(self, star7):
        runs = {}
        for enabled in (False, True):
            models = make_synthesis_models(star7.topology, seed=0)
            human = ScriptedHuman(synthesis_fault_catalog(star7.topology))
            with toggles.scoped(memoization=enabled):
                result = SynthesisOrchestrator(
                    star7.topology, models, human=human,
                    iip_ids=DEFAULT_IIP_IDS,
                ).run()
            runs[enabled] = (result.prompt_log, result.transcript)
        assert runs[True] == runs[False]
        assert orchestrator._FINDING_MEMO.hits > 0

    def test_translation_run_is_identical_without_memoization(self):
        runs = {}
        for enabled in (False, True):
            with toggles.scoped(memoization=enabled):
                result, _ = _translation_run()
            runs[enabled] = (result.prompt_log, result.transcript)
        assert runs[True] == runs[False]
        assert orchestrator._FINDING_MEMO.hits > 0
