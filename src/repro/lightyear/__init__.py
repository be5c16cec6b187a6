"""Lightyear substitute: local policy invariants, their verification,
and the compositional argument that they imply the global policy."""

from .compose import (
    CompositionResult,
    GlobalCheckResult,
    IncrementalGlobalChecker,
    check_composition,
    check_global_no_transit,
    reset_simulation_states,
)
from .invariants import (
    EgressFilterInvariant,
    EgressPrependInvariant,
    IngressTagInvariant,
    no_transit_invariants,
)
from .verifier import InvariantViolation, verify_invariant, verify_invariants

__all__ = [
    "CompositionResult",
    "EgressFilterInvariant",
    "EgressPrependInvariant",
    "GlobalCheckResult",
    "IncrementalGlobalChecker",
    "IngressTagInvariant",
    "InvariantViolation",
    "check_composition",
    "check_global_no_transit",
    "no_transit_invariants",
    "reset_simulation_states",
    "verify_invariant",
    "verify_invariants",
]
