"""Replay client: drive COSYNTH from a recorded transcript.

The path to using a *real* GPT-4 with this codebase: record the
assistant responses of an actual chat (or of a prior simulated run),
then replay them through the same orchestrator.  Replay is also how the
test suite pins down orchestrator behaviour against byte-exact response
sequences.
"""

from __future__ import annotations

from typing import Sequence

from .client import ChatTranscript

__all__ = ["ReplayClient"]


class ReplayClient:
    """An :class:`LLMClient` that returns pre-recorded responses in order.

    When the recording runs out, the last response is repeated (a stuck
    model), matching how a real chat would behave if re-asked after its
    final answer.
    """

    def __init__(self, responses: Sequence[str]) -> None:
        if not responses:
            raise ValueError("a replay needs at least one response")
        self._responses = list(responses)
        self._cursor = 0
        self.transcript = ChatTranscript()

    def send(self, prompt: str) -> str:
        self.transcript.add_user(prompt)
        index = min(self._cursor, len(self._responses) - 1)
        self._cursor += 1
        response = self._responses[index]
        self.transcript.add_assistant(response)
        return response

    @property
    def exhausted(self) -> bool:
        """True once every recorded response has been served."""
        return self._cursor >= len(self._responses)
