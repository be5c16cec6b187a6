"""Route announcements: the values that route policies transform.

A :class:`Route` models a BGP route advertisement as seen by a route map:
a prefix plus the attributes the paper's experiments manipulate (MED,
local preference, communities, AS path, origin protocol).  Routes are
immutable; policy evaluation returns transformed copies.

Route datapath
--------------

``Route`` is a ``__slots__`` value type whose :class:`~repro.netmodel.
aspath.AsPath` and community set are *interned* (one canonical instance
per distinct value, see ``AsPath.of`` and
:func:`~repro.netmodel.communities.intern_communities`), so equality
and hashing on the hot comparisons are pointer-cheap and memo keys stay
canonical.  Routes are never copied attribute by attribute: every
transformation goes through a mutating
:class:`~repro.netmodel.routebuilder.RouteBuilder` that policy
evaluation drives *transactionally* — a clause chain (or a whole
session export in ``bgpsim._advertise``) accumulates every change into
one builder and ``freeze()``-es exactly once, allocating one ``Route``
per transformation rather than one per attribute.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Iterable, Optional

from ..obs import counter
from .aspath import AsPath, EMPTY_AS_PATH
from .communities import Community, EMPTY_COMMUNITIES, intern_communities
from .ip import Ipv4Address, Prefix

__all__ = [
    "Origin",
    "Protocol",
    "ROUTES_BUILT",
    "ROUTES_REUSED",
    "Route",
]


class Origin(enum.Enum):
    """BGP origin attribute."""

    IGP = "igp"
    EGP = "egp"
    INCOMPLETE = "incomplete"


class Protocol(enum.Enum):
    """The protocol a route was learned from.

    ``match protocol``/``from bgp`` conditions in redistribution policies
    depend on this; the paper's redistribution bug (§3.2) is exactly a
    missing ``from bgp`` condition.
    """

    BGP = "bgp"
    OSPF = "ospf"
    CONNECTED = "connected"
    STATIC = "static"
    AGGREGATE = "aggregate"


DEFAULT_LOCAL_PREF = 100


#: Route allocations through RouteBuilder.freeze.
ROUTES_BUILT = counter("route.routes_built")
#: Routes reused instead of rebuilt: no-change freeze() calls plus
#: bgpsim's per-session candidate reuses across fixpoint rounds.
ROUTES_REUSED = counter("route.routes_reused")


# -- the value type ------------------------------------------------------------


class Route:
    """An immutable route advertisement (interned, ``__slots__``-based).

    >>> route = Route(prefix=Prefix.parse("1.2.3.0/24"))
    >>> route.med
    0
    """

    __slots__ = (
        "prefix",
        "as_path",
        "communities",
        "med",
        "local_pref",
        "origin",
        "protocol",
        "next_hop",
        "_hash",
        "_decision",
    )

    def __init__(
        self,
        prefix: Prefix,
        as_path: Optional[AsPath] = None,
        communities: Iterable[Community] = EMPTY_COMMUNITIES,
        med: int = 0,
        local_pref: int = DEFAULT_LOCAL_PREF,
        origin: Origin = Origin.IGP,
        protocol: Protocol = Protocol.BGP,
        next_hop: Optional[Ipv4Address] = None,
    ) -> None:
        new = object.__setattr__
        new(self, "prefix", prefix)
        new(
            self,
            "as_path",
            EMPTY_AS_PATH if as_path is None else AsPath.of(as_path.asns),
        )
        new(self, "communities", intern_communities(communities))
        new(self, "med", med)
        new(self, "local_pref", local_pref)
        new(self, "origin", origin)
        new(self, "protocol", protocol)
        new(self, "next_hop", next_hop)
        new(self, "_hash", None)
        new(self, "_decision", None)

    @classmethod
    def _from_canonical(
        cls,
        prefix: Prefix,
        as_path: AsPath,
        communities: FrozenSet[Community],
        med: int,
        local_pref: int,
        origin: Origin,
        protocol: Protocol,
        next_hop: Optional[Ipv4Address],
    ) -> "Route":
        """Construct trusting already-interned attributes (the builder's
        ``freeze`` fast path — skips the re-interning of ``__init__``)."""
        route = cls.__new__(cls)
        new = object.__setattr__
        new(route, "prefix", prefix)
        new(route, "as_path", as_path)
        new(route, "communities", communities)
        new(route, "med", med)
        new(route, "local_pref", local_pref)
        new(route, "origin", origin)
        new(route, "protocol", protocol)
        new(route, "next_hop", next_hop)
        new(route, "_hash", None)
        new(route, "_decision", None)
        return route

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Route is immutable; transform via RouteBuilder")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("Route is immutable; transform via RouteBuilder")

    # With __slots__ and a raising __setattr__, the default pickle/copy
    # machinery cannot restore attributes; rebuilding through __init__
    # also re-interns, so an unpickled route lands back on the
    # canonical flyweights of its process.
    def __reduce__(self):
        return (
            Route,
            (
                self.prefix,
                self.as_path,
                self.communities,
                self.med,
                self.local_pref,
                self.origin,
                self.protocol,
                self.next_hop,
            ),
        )

    def __copy__(self) -> "Route":
        return self  # immutable value: a copy is the object itself

    def __deepcopy__(self, memo: dict) -> "Route":
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Route):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.med == other.med
            and self.local_pref == other.local_pref
            and (self.as_path is other.as_path or self.as_path == other.as_path)
            and (
                self.communities is other.communities
                or self.communities == other.communities
            )
            and self.origin is other.origin
            and self.protocol is other.protocol
            and self.next_hop == other.next_hop
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def decision_slice(self) -> tuple:
        """The route's slice of the BGP decision tuple, C-ordered so a
        plain ``<`` prefers the better route: ``(-local_pref,
        as-path length, med)``.  Computed once and cached on the
        (immutable, widely shared) route — ``RibEntry`` composes it
        with provenance into its ``decision_key``.
        """
        cached = self._decision
        if cached is None:
            cached = (-self.local_pref, len(self.as_path.asns), self.med)
            object.__setattr__(self, "_decision", cached)
        return cached

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(
                (
                    self.prefix,
                    self.as_path,
                    self.communities,
                    self.med,
                    self.local_pref,
                    self.origin,
                    self.protocol,
                    self.next_hop,
                )
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        return (
            f"Route(prefix={self.prefix!r}, as_path={self.as_path!r}, "
            f"communities={self.communities!r}, med={self.med!r}, "
            f"local_pref={self.local_pref!r}, origin={self.origin!r}, "
            f"protocol={self.protocol!r}, next_hop={self.next_hop!r})"
        )

    def describe(self) -> str:
        """One-line rendering used in humanized counterexamples."""
        communities = (
            "{" + ", ".join(sorted(str(c) for c in self.communities)) + "}"
            if self.communities
            else "{}"
        )
        return (
            f"prefix {self.prefix}, as-path [{self.as_path}], "
            f"communities {communities}, med {self.med}, "
            f"local-pref {self.local_pref}"
        )

