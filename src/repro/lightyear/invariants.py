"""Local policy invariants in the style of Lightyear.

§4.1: "the policy is that R1 should add a specific community at the
ingress to each ISP and then drop routes based on those communities at
the egress to each ISP."  Each obligation is a *local* invariant on one
route map of one router — which is what makes verification feedback
actionable ("it allowed us to localize verification errors to specific
routers and specific route maps within those routers").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

from ..netmodel.communities import Community
from ..netmodel.ip import Ipv4Address
from ..topology.context import topology_context
from ..topology.model import Topology

__all__ = [
    "EgressFilterInvariant",
    "EgressPrependInvariant",
    "IngressTagInvariant",
    "no_transit_invariants",
]


@dataclass(frozen=True)
class IngressTagInvariant:
    """Every route the import policy admits must carry ``community``."""

    router: str
    neighbor_ip: Ipv4Address
    community: Community

    @property
    def direction(self) -> str:
        return "import"

    def describe(self) -> str:
        return (
            f"on {self.router}, every route accepted from neighbor "
            f"{self.neighbor_ip} must carry the community {self.community}"
        )


@dataclass(frozen=True)
class EgressFilterInvariant:
    """No route carrying any forbidden community may be exported."""

    router: str
    neighbor_ip: Ipv4Address
    forbidden: FrozenSet[Community]

    @property
    def direction(self) -> str:
        return "export"


@dataclass(frozen=True)
class EgressPrependInvariant:
    """Every exported route must have ``asn`` prepended ``count`` times.

    Used by the incremental-policy extension (the paper's §6 question:
    "Can GPT-4 add a new policy incrementally without interfering with
    existing verified policy?") — a traffic-engineering depref expressed
    as a new local invariant alongside the existing no-transit ones.
    """

    router: str
    neighbor_ip: Ipv4Address
    asn: int
    count: int

    @property
    def direction(self) -> str:
        return "export"


def no_transit_invariants(topology: Topology) -> List[object]:
    """The no-transit local invariants for any topology family.

    Each guarded session tags what it admits with its ISP's community
    and filters every other ISP's community on export: the hub's session
    toward each spoke on a star (§4.1), each ISP attachment's own
    session on every other family (a multi-homed ISP's homes share one
    community).  An ISP route is tagged on entry, tags are never
    removed, and tagged routes never exit toward a different ISP, so
    the set implies the global policy.  It is derived once per topology,
    in its :func:`~repro.topology.context.topology_context`.
    """
    return list(topology_context(topology).invariants)
