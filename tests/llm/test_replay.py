"""Tests for the replay client."""

import pytest

from repro.core import ScriptedHuman, TranslationOrchestrator
from repro.llm import (
    BehaviorProfile,
    ChatRole,
    ReplayClient,
    make_translation_model,
    translation_fault_catalog,
)
from repro.sampleconfigs import load_translation_source


class TestReplayClient:
    def test_returns_responses_in_order(self):
        client = ReplayClient(["a", "b", "c"])
        assert [client.send("1"), client.send("2"), client.send("3")] == [
            "a",
            "b",
            "c",
        ]

    def test_repeats_last_when_exhausted(self):
        client = ReplayClient(["only"])
        client.send("x")
        assert client.send("y") == "only"
        assert client.exhausted

    def test_empty_recording_rejected(self):
        with pytest.raises(ValueError):
            ReplayClient([])

    def test_prompts_recorded(self):
        client = ReplayClient(["a"])
        client.send("hello")
        assert [
            message.content
            for message in client.transcript.messages
            if message.role is ChatRole.USER
        ] == ["hello"]


class TestReplayThroughOrchestrator:
    def test_replayed_run_reaches_same_verdict(self):
        """Record a simulated run, replay it, and verify the orchestrator
        reaches the same verified end state with the same prompt counts."""
        source = load_translation_source()
        live_model = make_translation_model(
            seed=3, profile=BehaviorProfile.always_fix()
        )
        human = ScriptedHuman(translation_fault_catalog())
        live = TranslationOrchestrator(source, live_model, human=human).run()
        assert live.verified

        replayed_model = ReplayClient([
            message.content
            for message in live_model.transcript.messages
            if message.role is ChatRole.ASSISTANT
        ])
        replay = TranslationOrchestrator(
            source, replayed_model, human=human
        ).run()
        assert replay.verified
        assert replay.final_text == live.final_text
        assert (
            replay.prompt_log.automated == live.prompt_log.automated
        )
        assert replay.prompt_log.human == live.prompt_log.human
