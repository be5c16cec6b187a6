"""LLM client protocol and chat transcripts.

COSYNTH is LLM-agnostic: the orchestrator talks to anything implementing
:class:`LLMClient`.  The paper "simulated each API call by feeding our
automatically generated prompts manually to GPT-4"; this reproduction
ships :class:`~repro.llm.simulated.SimulatedGPT4`, and a real API client
can be dropped in behind the same one-method protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Protocol

__all__ = ["ChatMessage", "ChatRole", "ChatTranscript", "LLMClient"]


class ChatRole(enum.Enum):
    """Who authored a chat message."""

    USER = "user"
    ASSISTANT = "assistant"


@dataclass(frozen=True)
class ChatMessage:
    """One message of a chat."""

    role: ChatRole
    content: str


@dataclass
class ChatTranscript:
    """An append-only record of one chat session."""

    messages: List[ChatMessage] = field(default_factory=list)

    def add_user(self, content: str) -> None:
        self.messages.append(ChatMessage(ChatRole.USER, content))

    def add_assistant(self, content: str) -> None:
        self.messages.append(ChatMessage(ChatRole.ASSISTANT, content))


class LLMClient(Protocol):
    """The minimal interface COSYNTH needs from a language model."""

    def send(self, prompt: str) -> str:
        """Send one prompt; return the model's full response.

        For configuration tasks the response is expected to contain the
        complete current configuration (the paper re-asks GPT-4 to
        "print the entire configuration" after each fix; simulated
        models simply always return it).
        """
        ...
