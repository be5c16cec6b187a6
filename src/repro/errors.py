"""The unified verification-error taxonomy of COSYNTH.

§3.1 distinguishes four error classes for translation (syntax errors,
structural mismatches, attribute differences, policy behavior
differences) and §4.1 three for synthesis (syntax, topology, semantic).
Every verifier in this repository reports through one shape — a
:class:`Finding` with an :class:`ErrorCategory` — which is what the
humanizer consumes and what the simulated LLM's fault model is indexed
by.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["ErrorCategory", "Finding"]


class ErrorCategory(enum.Enum):
    """Which verifier (and prompt formula) an error belongs to."""

    SYNTAX = "syntax"
    STRUCTURAL = "structural"
    ATTRIBUTE = "attribute"
    POLICY = "policy"
    TOPOLOGY = "topology"
    SEMANTIC = "semantic"


@dataclass(frozen=True)
class Finding:
    """One verification error, normalized across all verifiers.

    ``detail`` is the native finding object (ParseWarning,
    StructuralMismatch, TopologyIssue, InvariantViolation, ...), kept for
    programmatic access; ``message`` is its rendered description, the
    raw material of the humanizer.
    """

    category: ErrorCategory
    message: str
    router: str = ""
    detail: object = None
