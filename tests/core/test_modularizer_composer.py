"""Tests for the Modularizer, Composer, and ScriptedHuman."""

from repro.core import Composer, Modularizer, ScriptedHuman
from repro.errors import ErrorCategory, Finding
from repro.lightyear import EgressFilterInvariant, IngressTagInvariant
from repro.llm import translation_fault_catalog


class TestModularizer:
    def test_router_prompt_mentions_interfaces(self, star7):
        prompt = Modularizer(star7.topology).router_task_prompt("R2")
        assert "Interface eth0/0 has address 1.0.0.2" in prompt
        assert "R2 only" in prompt

    def test_router_prompt_mentions_neighbors(self, star7):
        prompt = Modularizer(star7.topology).router_task_prompt("R2")
        assert "BGP neighbor 1.0.0.1 (R1) in AS 1" in prompt
        assert "ISP_2" in prompt

    def test_router_prompt_mentions_announcements(self, star7):
        prompt = Modularizer(star7.topology).router_task_prompt("R2")
        assert "1.0.0.0/24" in prompt
        assert "AS number 2" in prompt

    def test_hub_prompt_carries_local_policy(self, star7):
        prompt = Modularizer(star7.topology).router_task_prompt("R1")
        assert "add community 100:1" in prompt
        assert "additively" in prompt
        assert "deny any route that carries" in prompt

    def test_spoke_prompt_has_no_local_policy(self, star7):
        prompt = Modularizer(star7.topology).router_task_prompt("R4")
        assert "Local policy" not in prompt

    def test_local_invariants_sliced_by_router(self, star7):
        modularizer = Modularizer(star7.topology)
        all_invariants = modularizer.local_invariants()
        hub_invariants = modularizer.local_invariants("R1")
        assert len(all_invariants) == len(hub_invariants) == 12
        assert modularizer.local_invariants("R2") == []

    def test_invariant_types(self, star7):
        invariants = Modularizer(star7.topology).local_invariants("R1")
        assert any(isinstance(i, IngressTagInvariant) for i in invariants)
        assert any(isinstance(i, EgressFilterInvariant) for i in invariants)


class TestComposer:
    def test_compose_builds_snapshot(self):
        composer = Composer(name="t")
        composer.put("R1", "hostname R1\n")
        composer.put("R2", "hostname R2\n")
        snapshot = composer.compose()
        assert [c.hostname for c in snapshot.configs.values()] == ["R1", "R2"]

    def test_put_replaces(self):
        composer = Composer()
        composer.put("R1", "hostname old\n")
        composer.put("R1", "hostname new\n")
        snapshot = composer.compose()
        assert [c.hostname for c in snapshot.configs.values()] == ["new"]


class TestScriptedHuman:
    def test_matches_fault_human_prompt(self):
        human = ScriptedHuman(translation_fault_catalog())
        finding = Finding(
            category=ErrorCategory.POLICY,
            message="redistribution difference",
        )
        response = human.respond(
            finding, "the BGP redistribution (connected) policy differs"
        )
        assert "from protocol" in response or "from bgp" in response

    def test_generic_fallback_counts_as_human(self):
        human = ScriptedHuman({})
        finding = Finding(
            category=ErrorCategory.SYNTAX, message="mystery problem"
        )
        response = human.respond(finding, "unintelligible verifier output")
        assert "mystery problem" in response
        assert len(human.responses) == 1
