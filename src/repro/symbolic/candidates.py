"""Structured candidate-route enumeration for policy analysis.

The route-map guard language used by the experiments tests only three
kinds of facts about a route: membership of its prefix in mentioned
prefix ranges, presence of mentioned communities, and its source
protocol.  The analysis therefore enumerates a finite candidate set that
exercises every *region* those predicates can distinguish:

* for each mentioned :class:`PrefixRange` — the base prefix, examples at
  the boundary lengths (``low``, ``low+1``, midpoint, ``high``), a
  sibling prefix outside the range's cone, and a canonical prefix
  disjoint from everything mentioned;
* every subset of mentioned communities up to a configurable size (plus
  the empty and the full set);
* every mentioned protocol plus BGP/OSPF/CONNECTED defaults.

Evaluating the real (concrete) route-map on this grid gives a sound and,
for the guard language above, effectively exhaustive search — the same
role Batfish's BDD-based engine plays for SearchRoutePolicies, at a
scale a pure-Python reproduction can afford.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..netmodel.communities import Community, intern_communities
from ..netmodel.device import RouterConfig
from ..netmodel.ip import Prefix, PrefixRange
from ..netmodel.route import Protocol, Route
from ..netmodel.routebuilder import RouteBuilder
from ..netmodel.routing_policy import (
    MatchAcl,
    MatchAsPathList,
    MatchCommunityInline,
    MatchCommunityList,
    MatchPrefixList,
    MatchPrefixRanges,
    MatchProtocol,
    RouteMap,
    SetCommunity,
)
from .constraints import RouteConstraint
from .memo import MemoCache

__all__ = [
    "CandidateUniverse",
    "canonical_route_map_key",
    "mentioned_communities",
    "mentioned_prefix_ranges",
    "mentioned_protocols",
]

# A prefix no experiment config mentions, exercising the "everything
# else" region of the prefix algebra.
_CANONICAL_OUTSIDE = Prefix.parse("203.0.113.0/24")

MAX_COMMUNITY_SUBSET = 2

# (universe fingerprint, constraint) -> materialized candidate routes.
_ROUTES_CACHE = MemoCache("universe-routes")


def canonical_route_map_key(
    config: RouterConfig, route_map: RouteMap
) -> "tuple | None":
    """A hashable key capturing everything policy evaluation can see.

    Each clause is serialized in evaluation order with its match
    conditions *resolved through the config* (a ``match ip address
    prefix-list PL`` contributes PL's entries, not just its name), so
    two (config, route_map) pairs with equal keys evaluate identically
    on every route.  Returns ``None`` — "don't memoize" — when the map
    contains a condition this canonicalizer does not understand.
    """
    clauses = []
    for clause in route_map.clauses:
        matches = []
        for condition in clause.matches:
            part = _canonical_match(config, condition)
            if part is None:
                return None
            matches.append(part)
        clauses.append(
            (clause.seq, clause.action, tuple(matches), tuple(clause.sets))
        )
    return (route_map.name, tuple(clauses))


def _canonical_match(config: RouterConfig, condition) -> "tuple | None":
    """One resolved match condition, or None if unrecognized."""
    if isinstance(condition, MatchPrefixList):
        prefix_list = config.get_prefix_list(condition.name)
        entries = tuple(prefix_list.entries) if prefix_list is not None else None
        return ("prefix-list", condition.name, entries)
    if isinstance(condition, MatchAcl):
        access_list = config.get_access_list(condition.name)
        entries = tuple(access_list.entries) if access_list is not None else None
        return ("acl", condition.name, entries)
    if isinstance(condition, MatchPrefixRanges):
        return ("ranges", condition.ranges)
    if isinstance(condition, MatchCommunityList):
        community_list = config.get_community_list(condition.name)
        entries = (
            tuple(community_list.entries) if community_list is not None else None
        )
        return ("community-list", condition.name, entries)
    if isinstance(condition, MatchCommunityInline):
        return ("community-inline", condition.community)
    if isinstance(condition, MatchAsPathList):
        as_path_list = config.get_as_path_list(condition.name)
        entries = (
            tuple(as_path_list.entries) if as_path_list is not None else None
        )
        return ("as-path", condition.name, entries)
    if isinstance(condition, MatchProtocol):
        return ("protocol", condition.protocol)
    return None


def mentioned_prefix_ranges(
    config: RouterConfig, route_map: RouteMap
) -> List[PrefixRange]:
    """All prefix ranges the policy can test, resolved through the config."""
    ranges: List[PrefixRange] = []
    for clause in route_map.clauses:
        for condition in clause.matches:
            if isinstance(condition, MatchPrefixRanges):
                ranges.extend(condition.ranges)
            elif isinstance(condition, MatchPrefixList):
                prefix_list = config.get_prefix_list(condition.name)
                if prefix_list is not None:
                    ranges.extend(entry.range for entry in prefix_list.entries)
            elif isinstance(condition, MatchAcl):
                access_list = config.get_access_list(condition.name)
                if access_list is not None:
                    ranges.extend(access_list.permitted_ranges())
    return _dedupe(ranges)


def mentioned_communities(
    config: RouterConfig, route_map: RouteMap
) -> List[Community]:
    """All communities the policy can test or set."""
    values: List[Community] = []
    for clause in route_map.clauses:
        for condition in clause.matches:
            if isinstance(condition, MatchCommunityList):
                community_list = config.get_community_list(condition.name)
                if community_list is not None:
                    for entry in community_list.entries:
                        values.extend(entry.communities)
            elif isinstance(condition, MatchCommunityInline):
                values.append(condition.community)
        for set_action in clause.sets:
            if isinstance(set_action, SetCommunity):
                values.extend(set_action.communities)
    return _dedupe(values)


def mentioned_protocols(route_map: RouteMap) -> List[Protocol]:
    """All protocols the policy can test."""
    values: List[Protocol] = []
    for clause in route_map.clauses:
        for condition in clause.matches:
            if isinstance(condition, MatchProtocol):
                values.append(condition.protocol)
    return _dedupe(values)


class CandidateUniverse:
    """A candidate-route grid built from one or more policies.

    Multiple (config, route_map) pairs can contribute structure — the
    Campion differ feeds both the original and the translation so the
    grid distinguishes every region either policy can see.
    """

    def __init__(self) -> None:
        self._ranges: List[PrefixRange] = []
        self._communities: List[Community] = []
        self._protocols: List[Protocol] = []

    @classmethod
    def for_policy(
        cls, config: RouterConfig, route_map: RouteMap
    ) -> "CandidateUniverse":
        """A universe seeded from one policy."""
        universe = cls()
        universe.add_policy(config, route_map)
        return universe

    def fingerprint(self) -> tuple:
        """A hashable identity for the accumulated structure (the grid
        is a pure function of it, order included)."""
        return (
            tuple(self._ranges),
            tuple(self._communities),
            tuple(self._protocols),
        )

    def add_policy(self, config: RouterConfig, route_map: RouteMap) -> None:
        self._ranges = _dedupe(
            self._ranges + mentioned_prefix_ranges(config, route_map)
        )
        self._communities = _dedupe(
            self._communities + mentioned_communities(config, route_map)
        )
        self._protocols = _dedupe(self._protocols + mentioned_protocols(route_map))

    def add_constraint(self, constraint: RouteConstraint) -> None:
        self._ranges = _dedupe(self._ranges + list(constraint.prefix_ranges))
        self._communities = _dedupe(
            self._communities
            + sorted(constraint.required_communities)
            + sorted(constraint.forbidden_communities)
        )
        if constraint.protocol is not None:
            self._protocols = _dedupe(self._protocols + [constraint.protocol])

    # -- grid construction ---------------------------------------------------

    def candidate_prefixes(self) -> List[Prefix]:
        prefixes: Set[Prefix] = {_CANONICAL_OUTSIDE}
        for item in self._ranges:
            base = item.prefix
            prefixes.add(base)
            lengths = {
                item.low,
                min(item.low + 1, item.high),
                (item.low + item.high) // 2,
                item.high,
            }
            for length in lengths:
                prefixes.add(Prefix(base.network, length))
            if base.length > 0:
                sibling_bit = 1 << (32 - base.length)
                prefixes.add(Prefix(base.network ^ sibling_bit, base.length))
                prefixes.add(Prefix(base.network, base.length - 1))
        return sorted(prefixes)

    def candidate_community_sets(self) -> List[FrozenSet[Community]]:
        # Interned so every candidate route carrying the same community
        # combination shares one canonical frozenset — memo keys built
        # from these routes stay pointer-comparable.
        sets: Set[FrozenSet[Community]] = {intern_communities(frozenset())}
        values = self._communities
        for size in range(1, min(MAX_COMMUNITY_SUBSET, len(values)) + 1):
            for combo in itertools.combinations(values, size):
                sets.add(intern_communities(frozenset(combo)))
        if values:
            sets.add(intern_communities(frozenset(values)))
        return sorted(sets, key=lambda item: (len(item), sorted(map(str, item))))

    def candidate_protocols(self) -> List[Protocol]:
        return _dedupe(
            self._protocols + [Protocol.BGP, Protocol.OSPF, Protocol.CONNECTED]
        )

    def routes(
        self, constraint: "RouteConstraint | None" = None
    ) -> Iterable[Route]:
        """Yield the grid, filtered by an optional input constraint.

        Routes are derived through the same :class:`RouteBuilder`
        datapath policy evaluation uses, so every attribute is the
        canonical interned instance and memo keys over these routes
        compare pointer-cheap.
        """
        community_sets = self.candidate_community_sets()
        protocols = self.candidate_protocols()
        for prefix in self.candidate_prefixes():
            base = Route(prefix=prefix)
            for communities in community_sets:
                for protocol in protocols:
                    if not communities and protocol is base.protocol:
                        # No attribute differs from the base: yield it
                        # directly instead of freezing a clean builder,
                        # so the routes_reused counter stays a measure
                        # of real datapath reuse, not enumeration churn.
                        route = base
                    else:
                        builder = RouteBuilder(base)
                        if communities:
                            builder.set_communities(communities)
                        if protocol is not base.protocol:
                            builder.set_protocol(protocol)
                        route = builder.freeze()
                    if constraint is None or constraint.admits(route):
                        yield route

    def cached_routes(
        self, constraint: "RouteConstraint | None" = None
    ) -> "Tuple[Route, ...]":
        """The grid as a shared, memoized tuple.

        Routes are immutable, so one materialization is safely shared by
        every caller whose universe has the same fingerprint — the hot
        path of :mod:`repro.lightyear.verifier`, where each invariant
        check walks the full grid.
        """
        key = (self.fingerprint(), constraint)
        hit, routes = _ROUTES_CACHE.lookup(key)
        if not hit:
            routes = tuple(self.routes(constraint))
            _ROUTES_CACHE.store(key, routes)
        return routes


def _dedupe(items: Sequence) -> List:
    """Order-preserving deduplication (hashable items)."""
    seen = set()
    result = []
    for item in items:
        if item not in seen:
            seen.add(item)
            result.append(item)
    return result
