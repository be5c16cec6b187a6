"""Symbolic route-policy analysis.

Implements the analysis primitives the paper borrows from Batfish and
Campion: finding witness routes a policy permits/denies
(:func:`search_route_policies`) and finding routes on which two policies
behave differently (:func:`compare_policies`), both over a structured
candidate grid that covers every region the policies' guards can
distinguish.
"""

from .candidates import (
    CandidateUniverse,
    canonical_route_map_key,
    mentioned_communities,
    mentioned_prefix_ranges,
    mentioned_protocols,
)
from .constraints import RouteConstraint
from .diff import BehaviorDifference, DifferenceKind, compare_policies
from .memo import (
    MemoCache,
    cache_totals,
    memoization_enabled,
    reset_caches,
    set_memoization,
)
from .search import PolicySearchResult, search_route_policies

__all__ = [
    "BehaviorDifference",
    "CandidateUniverse",
    "DifferenceKind",
    "MemoCache",
    "PolicySearchResult",
    "RouteConstraint",
    "cache_totals",
    "canonical_route_map_key",
    "compare_policies",
    "memoization_enabled",
    "mentioned_communities",
    "mentioned_prefix_ranges",
    "mentioned_protocols",
    "reset_caches",
    "search_route_policies",
    "set_memoization",
]
