"""LLM layer: the client protocol and the simulated GPT-4.

The simulated model generates drafts as "correct reference + injected
faults" drawn from the paper's documented error taxonomy, and responds
to correction prompts with the §3.2 behaviour distribution.  A real API
client can replace it behind the same :class:`LLMClient` protocol.
"""

from .behavior import BehaviorProfile, CorrectionOutcome, sample_outcome
from .client import ChatMessage, ChatRole, ChatTranscript, LLMClient
from .faults import DraftState, Fault, FaultTargetError
from .replay import ReplayClient
from .simulated import CorrectionStats, SimulatedGPT4
from .synthesis_faults import (
    IIP_SUPPRESSED_FAULTS,
    MULTIHOME_FAULT_KEY,
    border_fault_assignment,
    default_fault_assignment,
    fault_assignment,
    fault_designations,
    multihome_fault_target,
    synthesis_fault_catalog,
)
from .synthesis_model import make_synthesis_models
from .translation_faults import (
    DEFAULT_INITIAL_FAULTS,
    SIDE_POOL_FAULTS,
    translation_fault_catalog,
)
from .translation_model import make_translation_model, reference_translation

__all__ = [
    "BehaviorProfile",
    "ChatMessage",
    "ChatRole",
    "ChatTranscript",
    "CorrectionOutcome",
    "CorrectionStats",
    "DEFAULT_INITIAL_FAULTS",
    "DraftState",
    "Fault",
    "FaultTargetError",
    "IIP_SUPPRESSED_FAULTS",
    "MULTIHOME_FAULT_KEY",
    "LLMClient",
    "ReplayClient",
    "SIDE_POOL_FAULTS",
    "SimulatedGPT4",
    "border_fault_assignment",
    "default_fault_assignment",
    "fault_assignment",
    "fault_designations",
    "multihome_fault_target",
    "make_synthesis_models",
    "make_translation_model",
    "reference_translation",
    "sample_outcome",
    "synthesis_fault_catalog",
    "translation_fault_catalog",
]
