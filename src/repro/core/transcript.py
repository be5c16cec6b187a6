"""Session transcripts: the observable trace of a COSYNTH run.

Records every pipeline step — drafts, verifier verdicts, prompts, stage
transitions, punts to the human — so experiments can reconstruct the
Figure 3 flow (including the semantic-fix-introduces-syntax-error
back-edge) from data rather than prose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["SessionTranscript", "TranscriptEvent"]


@dataclass(frozen=True)
class TranscriptEvent:
    """One step of a run."""

    kind: str  # "draft" | "verify" | "prompt" | "punt" | "verified" | "abandoned"
    stage: str  # "syntax" | "structural" | "attribute" | "policy" | "topology" | "semantic" | "task" | "global"
    description: str
    router: str = ""


@dataclass
class SessionTranscript:
    """Append-only event log for one orchestrated run."""

    events: List[TranscriptEvent] = field(default_factory=list)

    def record(
        self, kind: str, stage: str, description: str, router: str = ""
    ) -> TranscriptEvent:
        event = TranscriptEvent(
            kind=kind, stage=stage, description=description, router=router
        )
        self.events.append(event)
        return event

    def stage_sequence(self) -> List[str]:
        """The verifier stages in visit order (Figure 3's trace)."""
        return [event.stage for event in self.events if event.kind == "verify"]

    def back_edges(self) -> int:
        """How often verification fell back to an *earlier* stage —
        e.g. a semantic fix re-introducing a syntax error (§3.2)."""
        order = {
            "syntax": 0,
            "topology": 1,
            "structural": 1,
            "attribute": 2,
            "policy": 3,
            "semantic": 3,
            "global": 4,
        }
        sequence = [
            stage for stage in self.stage_sequence() if stage in order
        ]
        count = 0
        for previous, current in zip(sequence, sequence[1:]):
            if order[current] < order[previous]:
                count += 1
        return count

    def punts(self) -> int:
        return sum(1 for event in self.events if event.kind == "punt")
