"""Tests for leverage accounting and session transcripts."""

import math

from repro.core import PromptKind, PromptLog, SessionTranscript


class TestPromptLog:
    def test_counts_by_kind(self):
        log = PromptLog()
        log.add(PromptKind.INITIAL, "task", "do it")
        log.add(PromptKind.AUTOMATED, "syntax", "fix a")
        log.add(PromptKind.AUTOMATED, "policy", "fix b")
        log.add(PromptKind.HUMAN, "policy", "fix c")
        assert log.initial == 1
        assert log.automated == 2
        assert log.human == 1

    def test_leverage_is_auto_over_human(self):
        log = PromptLog()
        for _ in range(20):
            log.add(PromptKind.AUTOMATED, "s", "x")
        for _ in range(2):
            log.add(PromptKind.HUMAN, "s", "x")
        assert log.leverage() == 10.0

    def test_leverage_infinite_without_human(self):
        log = PromptLog()
        log.add(PromptKind.AUTOMATED, "s", "x")
        assert math.isinf(log.leverage())

    def test_initial_prompts_not_in_leverage(self):
        log = PromptLog()
        log.add(PromptKind.INITIAL, "task", "x")
        log.add(PromptKind.AUTOMATED, "s", "x")
        log.add(PromptKind.HUMAN, "s", "x")
        assert log.leverage() == 1.0

    def test_by_stage(self):
        log = PromptLog()
        log.add(PromptKind.AUTOMATED, "syntax", "a")
        log.add(PromptKind.AUTOMATED, "syntax", "b")
        log.add(PromptKind.HUMAN, "policy", "c")
        assert log.by_stage() == {"syntax": 2, "policy": 1}

    def test_by_router(self):
        log = PromptLog()
        log.add(PromptKind.AUTOMATED, "s", "a", router="R1")
        log.add(PromptKind.AUTOMATED, "s", "b", router="R1")
        log.add(PromptKind.AUTOMATED, "s", "c")
        assert log.by_router() == {"R1": 2, "-": 1}

    def test_summary_renders_leverage(self):
        log = PromptLog()
        log.add(PromptKind.AUTOMATED, "s", "x")
        log.add(PromptKind.HUMAN, "s", "y")
        assert "leverage 1.0X" in log.summary()

    def test_summary_inf(self):
        log = PromptLog()
        log.add(PromptKind.AUTOMATED, "s", "x")
        assert "leverage infX" in log.summary()


class TestSessionTranscript:
    def test_stage_sequence(self):
        transcript = SessionTranscript()
        transcript.record("verify", "syntax", "a")
        transcript.record("prompt", "syntax", "b")
        transcript.record("verify", "policy", "c")
        assert transcript.stage_sequence() == ["syntax", "policy"]

    def test_back_edges_counts_regressions_to_earlier_stage(self):
        """The Figure 3 back-edge: policy fix reintroduces a syntax error."""
        transcript = SessionTranscript()
        for stage in ("syntax", "structural", "policy", "syntax", "policy"):
            transcript.record("verify", stage, stage)
        assert transcript.back_edges() == 1

    def test_no_back_edges_in_monotone_run(self):
        transcript = SessionTranscript()
        for stage in ("syntax", "structural", "attribute", "policy"):
            transcript.record("verify", stage, stage)
        assert transcript.back_edges() == 0

    def test_punts_counted(self):
        transcript = SessionTranscript()
        transcript.record("punt", "policy", "stuck")
        transcript.record("punt", "semantic", "stuck")
        assert transcript.punts() == 2

    def test_router_attribution(self):
        transcript = SessionTranscript()
        event = transcript.record("verify", "topology", "x", router="R2")
        assert event.router == "R2"
