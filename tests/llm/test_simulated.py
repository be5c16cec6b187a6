"""Tests for the SimulatedGPT4 chat engine."""

import pytest

from repro.llm import (
    BehaviorProfile,
    ChatRole,
    make_translation_model,
)


def _model(**kwargs):
    defaults = dict(seed=0, initial_faults=("wrong_med",))
    defaults.update(kwargs)
    return make_translation_model(**defaults)


class TestChatFlow:
    def test_first_prompt_yields_draft(self):
        model = _model()
        text = model.send("Translate the configuration.")
        assert "policy-statement" in text
        assert model.stats.drafts == 1

    def test_draft_before_send_raises(self):
        model = _model()
        with pytest.raises(RuntimeError):
            model.draft

    def test_transcript_records_both_sides(self):
        model = _model()
        model.send("Translate.")
        model.send("fix the MED")
        roles = [message.role for message in model.transcript.messages]
        assert roles == [ChatRole.USER, ChatRole.ASSISTANT] * 2
        assert model.transcript.messages[-1].content

    def test_unmatched_prompt_is_noop(self):
        model = _model()
        before = model.send("Translate.")
        after = model.send("please write a poem about BGP")
        assert before == after
        assert model.stats.unmatched == 1


class TestCorrections:
    def test_matching_prompt_fixes_with_always_fix(self):
        model = _model(profile=BehaviorProfile.always_fix())
        model.send("Translate.")
        model.send("the translation sets MED to 0 but the original sets MED to 50")
        assert model.active_fault_keys() == []
        assert model.resolution_log == [("wrong_med", "generated")]

    def test_never_fix_leaves_fault(self):
        model = _model(profile=BehaviorProfile.never_fix())
        model.send("Translate.")
        model.send("wrong MED value")
        assert model.active_fault_keys() == ["wrong_med"]
        assert model.stats.no_changes == 1

    def test_unfixable_fault_ignores_generated_prompt(self):
        model = _model(
            initial_faults=("redistribution_unguarded",),
            profile=BehaviorProfile.always_fix(),
        )
        model.send("Translate.")
        model.send("there is a redistribution difference for prefix 1.2.3.0/24")
        assert model.active_fault_keys() == ["redistribution_unguarded"]
        assert model.stats.stubborn_no_changes == 1

    def test_unfixable_fault_yields_to_human_prompt(self):
        model = _model(initial_faults=("redistribution_unguarded",))
        model.send("Translate.")
        model.send("Add a 'from bgp' condition to the existing terms.")
        assert model.active_fault_keys() == []
        assert model.resolution_log == [("redistribution_unguarded", "human")]

    def test_successor_transition(self):
        """ge-range human fix introduces the invalid /24-32 syntax, which
        the next generated syntax prompt then repairs (§3.2's story)."""
        model = _model(
            initial_faults=("dropped_ge_range",),
            profile=BehaviorProfile.always_fix(),
        )
        model.send("Translate.")
        draft = model.send(
            "Use a route-filter with prefix-length-range /24-/32 instead."
        )
        assert model.active_fault_keys() == ["invalid_prefix_list_syntax"]
        assert "1.2.3.0/24-32" in draft
        final = model.send(
            "There is a syntax error: "
            "'policy-options prefix-list our-networks 1.2.3.0/24-32'"
        )
        assert model.active_fault_keys() == []
        assert "24-32" not in final
        assert "prefix-length-range /24-/32" in final or "orlonger" in final

    def test_new_error_outcome_injects_side_fault(self):
        profile = BehaviorProfile(
            fix=0.0, no_change=0.0, fix_with_new_error=1.0,
            fix_with_regression=0.0,
        )
        model = _model(profile=profile)
        model.send("Translate.")
        model.send("fix the MED difference")
        assert "wrong_med" not in model.active_fault_keys()
        assert model.stats.new_errors == 1
        assert model.active_fault_keys()  # a side fault appeared

    def test_regression_outcome_reintroduces_fixed_fault(self):
        profile = BehaviorProfile(
            fix=0.0, no_change=0.0, fix_with_new_error=0.0,
            fix_with_regression=1.0,
        )
        model = make_translation_model(
            seed=0,
            profile=profile,
            initial_faults=("wrong_med", "ospf_cost_difference"),
        )
        model.send("Translate.")
        model.send("the MED value is wrong")  # fixes med, nothing to regress yet?
        # First fix has no previously fixed fixable fault other than itself.
        model.send("the OSPF link cost set to 1 vs 0")
        # Fixing cost regresses med.
        assert "wrong_med" in model.active_fault_keys()
        assert model.stats.regressions >= 1

    def test_seed_determinism(self):
        first = make_translation_model(seed=42)
        second = make_translation_model(seed=42)
        prompts = ["Translate.", "fix the MED", "fix the passive interface"]
        outputs_first = [first.send(p) for p in prompts]
        outputs_second = [second.send(p) for p in prompts]
        assert outputs_first == outputs_second
