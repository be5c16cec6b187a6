"""The transactional, mutating side of the route datapath.

A :class:`RouteBuilder` is a scratch route: it is seeded from an
immutable :class:`~repro.netmodel.route.Route`, accumulates any number
of attribute changes in place, and :meth:`~RouteBuilder.freeze`-s back
into a canonical (interned) ``Route`` exactly once.  Policy evaluation
drives it transactionally — ``RouteMapClause`` set chains and the whole
export pipeline of ``bgpsim._advertise`` (export map → AS prepend →
next-hop rewrite → import map) thread a single builder, so one session
export allocates one ``Route`` rather than one per attribute.

Builders expose the readable surface of a ``Route`` (``prefix``,
``med``, ``local_pref``, ``origin``, ``protocol``, ``next_hop``,
``as_path``, ``communities``) as the transaction's *current* state;
``as_path`` and ``communities`` materialize lazily and are cached until
the next mutation.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set

from .aspath import AsPath
from .communities import Community, intern_communities
from .ip import Ipv4Address
from .route import ROUTES_BUILT, ROUTES_REUSED, Protocol, Route

__all__ = ["RouteBuilder", "export_route"]


def export_route(route: Route, asn: int, next_hop: Ipv4Address) -> Route:
    """``route`` with ``asn`` prepended and ``next_hop`` rewritten, in
    one canonical allocation.

    The advertise fast path: when no set chain fires on a session
    export, the whole pipeline reduces to these two attribute changes,
    so the simulator skips the builder entirely and constructs the
    interned result directly.
    """
    ROUTES_BUILT.inc()
    return Route._from_canonical(
        route.prefix,
        AsPath.of((asn,) + route.as_path.asns),
        route.communities,
        route.med,
        route.local_pref,
        route.origin,
        route.protocol,
        next_hop,
    )


class RouteBuilder:
    """A mutable route under construction; ``freeze()`` interns it."""

    __slots__ = (
        "_base",
        "med",
        "local_pref",
        "origin",
        "protocol",
        "next_hop",
        "_pending_prepends",
        "_as_path",
        "_community_set",
        "_communities",
        "_dirty",
    )

    def __init__(self, base: Route) -> None:
        self._base = base
        self.med = base.med
        self.local_pref = base.local_pref
        self.origin = base.origin
        self.protocol = base.protocol
        self.next_hop = base.next_hop
        self._pending_prepends: Optional[List[int]] = None
        self._as_path: Optional[AsPath] = None
        self._community_set: Optional[Set[Community]] = None
        self._communities: Optional[FrozenSet[Community]] = None
        self._dirty = False

    # -- the readable Route surface ------------------------------------------

    @property
    def prefix(self):
        return self._base.prefix

    @property
    def as_path(self) -> AsPath:
        pending = self._pending_prepends
        if pending is None:
            return self._base.as_path
        cached = self._as_path
        if cached is None:
            cached = AsPath.of(tuple(pending) + self._base.as_path.asns)
            self._as_path = cached
        return cached

    @property
    def communities(self) -> FrozenSet[Community]:
        working = self._community_set
        if working is None:
            return self._base.communities
        cached = self._communities
        if cached is None:
            cached = intern_communities(frozenset(working))
            self._communities = cached
        return cached

    def path_contains(self, asn: int) -> bool:
        """AS-loop check without materializing the pending path."""
        pending = self._pending_prepends
        if pending is not None and asn in pending:
            return True
        return self._base.as_path.contains(asn)

    # -- mutators --------------------------------------------------------------

    def set_med(self, med: int) -> "RouteBuilder":
        self.med = med
        self._dirty = True
        return self

    def set_local_pref(self, local_pref: int) -> "RouteBuilder":
        self.local_pref = local_pref
        self._dirty = True
        return self

    def set_next_hop(self, next_hop: Optional[Ipv4Address]) -> "RouteBuilder":
        self.next_hop = next_hop
        self._dirty = True
        return self

    def set_protocol(self, protocol: Protocol) -> "RouteBuilder":
        self.protocol = protocol
        self._dirty = True
        return self

    def prepend_as(self, asn: int, count: int = 1) -> "RouteBuilder":
        pending = self._pending_prepends
        if pending is None:
            pending = []
            self._pending_prepends = pending
        pending[:0] = [asn] * count
        self._as_path = None
        self._dirty = True
        return self

    def add_community(self, community: Community) -> "RouteBuilder":
        working = self._community_set
        if working is None:
            working = set(self._base.communities)
            self._community_set = working
        working.add(community)
        self._communities = None
        self._dirty = True
        return self

    def set_communities(
        self, communities: Iterable[Community]
    ) -> "RouteBuilder":
        """Replace the carried communities wholesale (non-additive set)."""
        self._community_set = set(communities)
        self._communities = None
        self._dirty = True
        return self

    # -- the single exit -------------------------------------------------------

    def freeze(self) -> Route:
        """The accumulated route as one canonical immutable ``Route``.

        A builder that recorded no mutation returns its base route
        unchanged — zero allocations.
        """
        if not self._dirty:
            ROUTES_REUSED.inc()
            return self._base
        ROUTES_BUILT.inc()
        return Route._from_canonical(
            self._base.prefix,
            self.as_path,
            self.communities,
            self.med,
            self.local_pref,
            self.origin,
            self.protocol,
            self.next_hop,
        )
