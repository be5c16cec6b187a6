"""Route maps / routing policies: the vendor-neutral policy IR.

Both Cisco route-maps and Junos policy-statements lower to a
:class:`RouteMap` of ordered :class:`RouteMapClause` objects, each with a
set of match conditions (conjunctive — *all* must hold, which is the AND
semantics whose misunderstanding by GPT-4 the paper documents in §4.2)
and a list of attribute transformations applied on permit.

Evaluation requires a :class:`PolicyContext` that resolves named prefix
lists, community lists, and AS-path lists; :class:`~repro.netmodel.device.
RouterConfig` implements it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Protocol as TypingProtocol, Tuple

from .acl import AccessList
from .aspath import AsPathAccessList
from .communities import Community, CommunityList
from .ip import Ipv4Address, PrefixRange
from .prefixlist import PrefixList
from .route import Protocol, Route
from .routebuilder import RouteBuilder
from .value import ImmutableValue

__all__ = [
    "Action",
    "MatchAcl",
    "MatchCondition",
    "MatchPrefixList",
    "MatchPrefixRanges",
    "MatchCommunityList",
    "MatchCommunityInline",
    "MatchAsPathList",
    "MatchProtocol",
    "SetAction",
    "SetCommunity",
    "SetMed",
    "SetLocalPref",
    "SetNextHop",
    "SetAsPathPrepend",
    "RouteMapClause",
    "RouteMap",
    "PolicyContext",
    "PolicyResult",
    "PolicyEvaluationError",
    "PreparedRouteMap",
]


class Action(enum.Enum):
    """Terminal disposition of a clause."""

    PERMIT = "permit"
    DENY = "deny"

    def __str__(self) -> str:
        return self.value


class PolicyEvaluationError(Exception):
    """Raised when a policy references an undefined named structure.

    Carries the site: ``kind``/``name`` identify the undefined
    structure, and ``router``/``route_map``/``clause_seq`` are filled
    in by the evaluation layers that know them — so a runtime failure
    names the same (router, map, clause) coordinates a ``repro lint``
    ``undefined-ref`` finding does.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: Optional[str] = None,
        name: Optional[str] = None,
        router: Optional[str] = None,
        route_map: Optional[str] = None,
        clause_seq: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self._base_message = message
        self.kind = kind
        self.name = name
        self.router = router
        self.route_map = route_map
        self.clause_seq = clause_seq
        self._rerender()

    def annotate(
        self,
        *,
        router: Optional[str] = None,
        route_map: Optional[str] = None,
        clause_seq: Optional[int] = None,
    ) -> "PolicyEvaluationError":
        """Fill in missing site context (first annotation wins)."""
        if self.router is None:
            self.router = router
        if self.route_map is None:
            self.route_map = route_map
        if self.clause_seq is None:
            self.clause_seq = clause_seq
        self._rerender()
        return self

    def _rerender(self) -> None:
        parts = []
        if self.router is not None:
            parts.append(f"router {self.router}")
        if self.route_map is not None:
            parts.append(f"route-map {self.route_map}")
        if self.clause_seq is not None:
            parts.append(f"clause {self.clause_seq}")
        if parts:
            self.args = (f"{self._base_message} ({', '.join(parts)})",)
        else:
            self.args = (self._base_message,)


class PolicyContext(TypingProtocol):
    """Resolves names referenced by match conditions."""

    def get_prefix_list(self, name: str) -> Optional[PrefixList]:
        """Look up a prefix list by name, or None."""

    def get_community_list(self, name: str) -> Optional[CommunityList]:
        """Look up a community list by name, or None."""

    def get_as_path_list(self, name: str) -> Optional[AsPathAccessList]:
        """Look up an AS-path access list by name, or None."""

    def get_access_list(self, name: str) -> Optional[AccessList]:
        """Look up an IPv4 access list by name or number, or None."""


@dataclass(frozen=True)
class MatchCondition(ImmutableValue):
    """Base class for match conditions; subclasses are frozen dataclasses."""

    def matches(self, route: Route, context: PolicyContext) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class MatchPrefixList(MatchCondition):
    """``match ip address prefix-list NAME`` / ``from prefix-list NAME``."""

    name: str

    def matches(self, route: Route, context: PolicyContext) -> bool:
        prefix_list = context.get_prefix_list(self.name)
        if prefix_list is None:
            raise PolicyEvaluationError(
                f"undefined prefix-list {self.name!r}",
                kind="prefix-list",
                name=self.name,
                router=getattr(context, "hostname", None),
            )
        return prefix_list.permits(route.prefix)


@dataclass(frozen=True)
class MatchAcl(MatchCondition):
    """``match ip address <acl-name-or-number>`` — a standard ACL used
    as a route filter (§3.1's other policy-difference source)."""

    name: str

    def matches(self, route: Route, context: PolicyContext) -> bool:
        access_list = context.get_access_list(self.name)
        if access_list is None:
            raise PolicyEvaluationError(
                f"undefined access-list {self.name!r}",
                kind="access-list",
                name=self.name,
                router=getattr(context, "hostname", None),
            )
        return access_list.permits_prefix(route.prefix)


@dataclass(frozen=True)
class MatchPrefixRanges(MatchCondition):
    """Junos inline ``route-filter`` terms (disjunction over ranges)."""

    ranges: Tuple[PrefixRange, ...]

    def matches(self, route: Route, context: PolicyContext) -> bool:
        return any(item.matches(route.prefix) for item in self.ranges)

    def describe(self) -> str:
        rendered = ", ".join(str(item) for item in self.ranges)
        return f"route-filter [{rendered}]"


@dataclass(frozen=True)
class MatchCommunityList(MatchCondition):
    """``match community LIST`` (Cisco) / ``from community NAME`` (Junos)."""

    name: str

    def matches(self, route: Route, context: PolicyContext) -> bool:
        community_list = context.get_community_list(self.name)
        if community_list is None:
            raise PolicyEvaluationError(
                f"undefined community-list {self.name!r}",
                kind="community-list",
                name=self.name,
                router=getattr(context, "hostname", None),
            )
        return community_list.permits(route.communities)


@dataclass(frozen=True)
class MatchCommunityInline(MatchCondition):
    """A literal community in a match position.

    ``match community 100:1`` is *invalid* IOS — the paper's §4.2 "Match
    Community" IIP exists precisely because GPT-4 keeps generating it.
    The IR keeps the form so the syntax verifier can diagnose it; if it is
    ever evaluated we fall back to the intuitive meaning.
    """

    community: Community

    def matches(self, route: Route, context: PolicyContext) -> bool:
        return self.community in route.communities


@dataclass(frozen=True)
class MatchAsPathList(MatchCondition):
    """``match as-path NAME`` against an AS-path access list."""

    name: str

    def matches(self, route: Route, context: PolicyContext) -> bool:
        as_path_list = context.get_as_path_list(self.name)
        if as_path_list is None:
            raise PolicyEvaluationError(
                f"undefined as-path list {self.name!r}",
                kind="as-path list",
                name=self.name,
                router=getattr(context, "hostname", None),
            )
        return as_path_list.permits(route.as_path)


@dataclass(frozen=True)
class MatchProtocol(MatchCondition):
    """Junos ``from protocol bgp`` — the redistribution guard of §3.2."""

    protocol: Protocol

    def matches(self, route: Route, context: PolicyContext) -> bool:
        return route.protocol == self.protocol

    def describe(self) -> str:
        return f"protocol {self.protocol.value}"


@dataclass(frozen=True)
class SetAction(ImmutableValue):
    """Base class for attribute transformations.

    :meth:`apply_to` records the change on a shared
    :class:`~repro.netmodel.routebuilder.RouteBuilder`, so a clause's
    whole set chain freezes one route.
    """

    def apply_to(self, builder: RouteBuilder) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class SetCommunity(SetAction):
    """``set community X [additive]`` / ``then community add NAME``.

    ``additive=False`` replaces all communities — the paper's "Adding
    Communities" IIP (§4.2) exists because GPT-4 omits ``additive``.
    """

    communities: Tuple[Community, ...]
    additive: bool = False

    def apply_to(self, builder: RouteBuilder) -> None:
        if self.additive:
            for community in self.communities:
                builder.add_community(community)
            return
        if not self.communities:
            return
        builder.set_communities(self.communities)


@dataclass(frozen=True)
class SetMed(SetAction):
    """``set metric N`` — MED, the attribute of Table 2's policy error."""

    med: int

    def apply_to(self, builder: RouteBuilder) -> None:
        builder.set_med(self.med)


@dataclass(frozen=True)
class SetLocalPref(SetAction):
    """``set local-preference N``."""

    local_pref: int

    def apply_to(self, builder: RouteBuilder) -> None:
        builder.set_local_pref(self.local_pref)


@dataclass(frozen=True)
class SetNextHop(SetAction):
    """``set ip next-hop A.B.C.D``."""

    next_hop: Ipv4Address

    def apply_to(self, builder: RouteBuilder) -> None:
        builder.set_next_hop(self.next_hop)


@dataclass(frozen=True)
class SetAsPathPrepend(SetAction):
    """``set as-path prepend ASN [ASN ...]``."""

    asn: int
    count: int = 1

    def apply_to(self, builder: RouteBuilder) -> None:
        builder.prepend_as(self.asn, self.count)


@dataclass
class RouteMapClause:
    """One sequenced stanza/term of a route map.

    All match conditions must hold for the clause to fire (AND).  On a
    permit, every set action is applied in order.
    """

    seq: int
    action: Action
    matches: List[MatchCondition] = field(default_factory=list)
    sets: List[SetAction] = field(default_factory=list)
    term_name: Optional[str] = None

    def fires(self, route: Route, context: PolicyContext) -> bool:
        """True when every match condition accepts the route."""
        try:
            return all(
                condition.matches(route, context)
                for condition in self.matches
            )
        except PolicyEvaluationError as exc:
            exc.annotate(clause_seq=self.seq)
            raise

    def apply_sets(self, builder: RouteBuilder) -> None:
        """Record every set action on the shared builder."""
        for set_action in self.sets:
            set_action.apply_to(builder)


@dataclass(frozen=True)
class PolicyResult:
    """Outcome of evaluating a route map on a route."""

    action: Action
    route: Route
    clause_seq: Optional[int] = None

    @property
    def permitted(self) -> bool:
        return self.action is Action.PERMIT


@dataclass
class RouteMap:
    """A named, ordered route map (first matching clause is terminal).

    A route matching no clause is denied, mirroring the implicit deny of
    a Cisco route-map used as a BGP neighbor policy.
    """

    name: str
    clauses: List[RouteMapClause] = field(default_factory=list)

    def add_clause(self, clause: RouteMapClause) -> RouteMapClause:
        self.clauses.append(clause)
        self.clauses.sort(key=lambda item: item.seq)
        return clause

    def get_clause(self, seq: int) -> Optional[RouteMapClause]:
        for clause in self.clauses:
            if clause.seq == seq:
                return clause
        return None

    def evaluate(self, route: Route, context: PolicyContext) -> PolicyResult:
        """Run the route through the map, returning disposition + route."""
        try:
            return self._evaluate(route, context)
        except PolicyEvaluationError as exc:
            exc.annotate(
                router=getattr(context, "hostname", None),
                route_map=self.name,
            )
            raise

    def _evaluate(self, route: Route, context: PolicyContext) -> PolicyResult:
        for clause in self.clauses:
            if clause.fires(route, context):
                if clause.action is Action.DENY:
                    return PolicyResult(Action.DENY, route, clause.seq)
                if not clause.sets:
                    return PolicyResult(Action.PERMIT, route, clause.seq)
                # Transactional: the whole set chain accumulates into
                # one builder, frozen exactly once.
                builder = RouteBuilder(route)
                clause.apply_sets(builder)
                return PolicyResult(Action.PERMIT, builder.freeze(), clause.seq)
        return PolicyResult(Action.DENY, route, None)

    def prepare(self, context: PolicyContext) -> "PreparedRouteMap":
        """Bind the map to a context once for batch evaluation.

        Resolves every named structure (prefix/community/AS-path/access
        lists) through the context up front, so evaluating a batch of
        routes — e.g. a whole RIB exported across one BGP session —
        pays the name resolution once instead of once per route.
        """
        return PreparedRouteMap(self, context)

    def referenced_prefix_lists(self) -> List[str]:
        """Names of prefix lists this map depends on."""
        names = []
        for clause in self.clauses:
            for condition in clause.matches:
                if isinstance(condition, MatchPrefixList):
                    names.append(condition.name)
        return names

    def referenced_community_lists(self) -> List[str]:
        """Names of community lists this map depends on."""
        names = []
        for clause in self.clauses:
            for condition in clause.matches:
                if isinstance(condition, MatchCommunityList):
                    names.append(condition.name)
        return names


class PreparedRouteMap:
    """A route map bound to one policy context for batch evaluation.

    Name resolution (the per-route dictionary walks in
    ``MatchPrefixList``/``MatchCommunityList``/... ) happens once at
    construction; evaluating a route then touches only the resolved
    structures.  Undefined names are *not* an eager error: evaluation
    raises :class:`PolicyEvaluationError` only when the offending
    condition is actually consulted, because an earlier condition in
    the same clause may short-circuit it — exactly as
    :meth:`RouteMap.evaluate` behaves route by route.
    """

    def __init__(self, route_map: "RouteMap", context: PolicyContext) -> None:
        self._route_map = route_map
        self._router = getattr(context, "hostname", None)
        self._clauses = [
            (
                clause,
                [
                    self._bind(condition, context, clause.seq)
                    for condition in clause.matches
                ],
            )
            for clause in route_map.clauses
        ]

    @property
    def name(self) -> str:
        return self._route_map.name

    def _bind(
        self, condition: MatchCondition, context: PolicyContext, seq: int
    ):
        def undefined(kind: str, name: str):
            # Bake the full site into the raiser: the prepared path
            # resolves names once up front, so the error it defers
            # already knows which clause of which map on which router.
            return _undefined_raiser(
                kind,
                name,
                router=self._router,
                route_map=self._route_map.name,
                clause_seq=seq,
            )

        if isinstance(condition, MatchPrefixList):
            resolved = context.get_prefix_list(condition.name)
            if resolved is not None:
                exact = _exact_permit_set(resolved)
                if exact is not None:
                    # The common reference shape — a few exact permit
                    # lines — collapses to one hash-set membership test.
                    return lambda route: route.prefix in exact
                return lambda route: resolved.permits(route.prefix)
            return undefined("prefix-list", condition.name)
        if isinstance(condition, MatchCommunityList):
            resolved = context.get_community_list(condition.name)
            if resolved is not None:
                return lambda route: resolved.permits(route.communities)
            return undefined("community-list", condition.name)
        if isinstance(condition, MatchAsPathList):
            resolved = context.get_as_path_list(condition.name)
            if resolved is not None:
                return lambda route: resolved.permits(route.as_path)
            return undefined("as-path list", condition.name)
        if isinstance(condition, MatchAcl):
            resolved = context.get_access_list(condition.name)
            if resolved is not None:
                return lambda route: resolved.permits_prefix(route.prefix)
            return undefined("access-list", condition.name)
        # Context-free conditions (inline communities, prefix ranges,
        # protocol, future kinds): nothing to pre-resolve.
        return lambda route: condition.matches(route, context)

    def evaluate(self, route: Route) -> PolicyResult:
        """Identical outcome to ``RouteMap.evaluate`` on the bound context."""
        clause = self.find_clause(route)
        if clause is None:
            return PolicyResult(Action.DENY, route, None)
        if clause.action is Action.DENY or not clause.sets:
            return PolicyResult(clause.action, route, clause.seq)
        builder = RouteBuilder(route)
        clause.apply_sets(builder)
        return PolicyResult(Action.PERMIT, builder.freeze(), clause.seq)

    def find_clause(self, route: Route) -> Optional[RouteMapClause]:
        """The first clause whose bound matchers accept the route, or
        ``None`` for the implicit deny.  Matching never
        mutates, so callers can decide *whether* a transaction is needed
        before allocating one (``bgpsim._advertise``'s fast path)."""
        try:
            for clause, matchers in self._clauses:
                fired = True
                for matcher in matchers:
                    if not matcher(route):
                        fired = False
                        break
                if fired:
                    return clause
            return None
        except PolicyEvaluationError as exc:
            exc.annotate(router=self._router, route_map=self.name)
            raise


def _undefined_raiser(
    kind: str,
    name: str,
    *,
    router: Optional[str] = None,
    route_map: Optional[str] = None,
    clause_seq: Optional[int] = None,
):
    def raiser(route: Route) -> bool:
        raise PolicyEvaluationError(
            f"undefined {kind} {name!r}",
            kind=kind,
            name=name,
            router=router,
            route_map=route_map,
            clause_seq=clause_seq,
        )

    return raiser


def _exact_permit_set(prefix_list: PrefixList):
    """The list's prefixes as a frozenset, when that is faithful: every
    entry an exact-length permit (first-match-wins degenerates to set
    membership because no entry can shadow another's verdict)."""
    members = []
    for entry in prefix_list.entries:
        if entry.action != "permit" or not entry.range.is_exact():
            return None
        members.append(entry.range.prefix)
    return frozenset(members)


def permit_all(name: str) -> RouteMap:
    """A route map with a single unconditional permit clause."""
    route_map = RouteMap(name)
    route_map.add_clause(RouteMapClause(seq=10, action=Action.PERMIT))
    return route_map
