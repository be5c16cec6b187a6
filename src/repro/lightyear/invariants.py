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
from typing import FrozenSet, List, Tuple

from ..netmodel.communities import Community
from ..netmodel.ip import Ipv4Address
from ..topology.generator import ingress_community
from ..topology.model import Topology

__all__ = [
    "EgressFilterInvariant",
    "EgressPrependInvariant",
    "IngressTagInvariant",
    "LocalInvariant",
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


LocalInvariant = (
    "IngressTagInvariant | EgressFilterInvariant | EgressPrependInvariant"
)


def no_transit_invariants(topology: Topology) -> List[object]:
    """Derive the no-transit local invariants for any topology family.

    **Hub-shaped (star) topologies** concentrate the policy on R1: for
    each spoke ``Ri`` (i ≥ 2) with hub-side address ``a_i`` and ingress
    tag ``t_i``:

    * R1 must tag routes learned from ``a_i`` with ``t_i``;
    * R1 must drop routes carrying ``t_j`` (for every j ≠ i) at the
      egress toward ``a_i``.

    **Every other family** places the same obligations on the border:
    each ISP-attached router must tag routes arriving from its ISP with
    that ISP's community and drop routes carrying any other ISP's
    community at the egress back to its ISP.

    Either way the set implies the global policy: an ISP route is tagged
    on entry, tags are never removed, and tagged routes never exit
    toward a different ISP — while untagged customer routes flow
    everywhere.
    """
    from ..topology.families import is_hub_star
    from ..topology.roles import RoleAssignment

    if not is_hub_star(topology):
        return _border_invariants(RoleAssignment.from_topology(topology))
    hub = topology.router("R1")
    spokes: List[Tuple[int, Ipv4Address]] = []
    for index, name in enumerate(topology.router_names(), start=1):
        if name == "R1":
            continue
        hub_neighbor = next(
            (spec for spec in hub.neighbors if spec.peer_name == name), None
        )
        if hub_neighbor is None:
            continue
        spokes.append((index, hub_neighbor.ip))
    invariants: List[object] = []
    tags = {address: ingress_community(index) for index, address in spokes}
    for index, address in spokes:
        invariants.append(
            IngressTagInvariant(
                router="R1", neighbor_ip=address, community=tags[address]
            )
        )
        forbidden = frozenset(
            tag for other, tag in tags.items() if other != address
        )
        if forbidden:
            invariants.append(
                EgressFilterInvariant(
                    router="R1", neighbor_ip=address, forbidden=forbidden
                )
            )
    return invariants


def _border_invariants(roles) -> List[object]:
    """Border placement: obligations live on each transit-forbidden
    attachment's own external session.

    Tags are per *ISP*, not per attachment: every home of a multi-homed
    ISP tags with (and is identified by) the same community, and its
    egress filters forbid every *other* ISP's tag — an ISP's own routes
    may legitimately come back out of its other home.
    """
    invariants: List[object] = []
    tags = {
        index: ingress_community(index) for index in roles.indices()
    }
    for attachment in roles.transit_forbidden():
        invariants.append(
            IngressTagInvariant(
                router=attachment.router,
                neighbor_ip=attachment.peer.peer_ip,
                community=tags[attachment.index],
            )
        )
        forbidden = frozenset(
            tag
            for index, tag in tags.items()
            if index != attachment.index
        )
        if forbidden:
            invariants.append(
                EgressFilterInvariant(
                    router=attachment.router,
                    neighbor_ip=attachment.peer.peer_ip,
                    forbidden=forbidden,
                )
            )
    return invariants
