"""Topology families beyond the Figure 4 star.

The paper closes with "much further testing in more complex use cases is
needed".  This module supplies that diversity: chain, ring, full-mesh,
and dumbbell generators that emit the same machine-readable
:class:`~repro.topology.model.Topology` (plus prose description) as
:func:`~repro.topology.generator.generate_star_network`, so every
downstream stage — Modularizer, per-router synthesis, topology verifier,
Lightyear-style local invariants, and the global BGP-simulation check —
runs unchanged on any family.

Conventions shared by all generated families:

* routers ``R1..Rn``, router ``Ri`` in AS ``i``;
* internal link *k* (1-based, in creation order) uses subnet
  ``10.k.0.0/24`` with the lower-indexed endpoint at ``10.k.0.1`` and
  the higher at ``10.k.0.2``; the lower endpoint announces the subnet;
* the CUSTOMER attaches to ``R1`` on ``100.0.0.0/24`` (as in the star);
* ``ISP_i`` attaches to ``Ri`` on ``200.i.0.0/24`` (router at ``.1``,
  peer at ``.2``, AS ``1000 + i``) — every router except the customer
  router carries an ISP, except in the dumbbell where the two core
  routers stay ISP-free;
* interface names count up per router (``eth0/0``, ``eth0/1``, ...),
  links first, external attachments last.

Unlike the star — whose no-transit policy is concentrated on the hub —
these families place the policy on the *border* routers: each
ISP-attached router tags its ISP's routes with that ISP's community when
they enter the network and drops routes carrying any other ISP's
community at the egress back out.  :func:`is_hub_star` tells the two
placements apart structurally, so reference configs, invariants, and the
global check dispatch without any family-specific flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..netmodel.ip import Ipv4Address, Prefix
from .generator import (
    CUSTOMER_ASN,
    CUSTOMER_SUBNET,
    MAX_ROUTERS,
    generate_star_network,
)
from .model import (
    ExternalPeer,
    InterfaceSpec,
    Link,
    NeighborSpec,
    RouterSpec,
    Topology,
)

__all__ = [
    "FAMILIES",
    "GeneratedNetwork",
    "SEEDED_FAMILIES",
    "check_fixed_layout",
    "check_size",
    "generate_chain_network",
    "generate_dumbbell_network",
    "generate_mesh_network",
    "generate_network",
    "generate_random_network",
    "generate_ring_network",
    "generate_waxman_network",
    "is_hub_star",
    "isp_attachments",
]

MIN_SIZE = 4  # the default fault assignment needs four routers
MAX_SIZE = 22  # keeps the mesh's 10.k.0.0/24 link numbering in one octet


@dataclass
class GeneratedNetwork:
    """Generator output: topology, prose description, and family name.

    Seeded families (random/waxman) also record the seed, the role spec
    they placed, and the placement strategy (``seeded``/``degree``);
    the hand-shaped families leave all three at their defaults."""

    topology: Topology
    description: str
    family: str
    seed: Optional[int] = None
    roles: Optional[str] = None
    place: Optional[str] = None


# -- role helpers ------------------------------------------------------------


def isp_attachments(topology: Topology) -> List[ExternalPeer]:
    """Every transit-forbidden external attachment (ISPs and PEERs —
    everything that is not a customer), in router order."""
    peers = [
        peer
        for peer in topology.externals
        if not peer.peer_name.startswith("CUSTOMER")
    ]
    order = {name: rank for rank, name in enumerate(topology.router_names())}
    return sorted(peers, key=lambda peer: (order[peer.router], peer.peer_name))


def is_hub_star(topology: Topology) -> bool:
    """True iff the topology is hub-shaped: R1 links every other router
    and no other internal links exist (the Figure 4 star).  Hub-shaped
    networks keep the paper's hub-concentrated policy; everything else
    uses border-placed policy."""
    if "R1" not in topology.routers or not topology.links:
        return False
    others = {name for name in topology.routers if name != "R1"}
    linked: Dict[str, int] = {}
    for link in topology.links:
        ends = {link.router_a, link.router_b}
        if "R1" not in ends or len(ends) != 2:
            return False
        (other,) = ends - {"R1"}
        linked[other] = linked.get(other, 0) + 1
    return set(linked) == others and all(count == 1 for count in linked.values())


# -- shared construction helpers ---------------------------------------------


class _Builder:
    """Accumulates routers/links/externals with the shared conventions."""

    def __init__(self, name: str, size: int) -> None:
        self.topology = Topology(name=name)
        self._interface_counts: Dict[str, int] = {}
        self._link_count = 0
        for index in range(1, size + 1):
            self.topology.add_router(
                RouterSpec(
                    name=f"R{index}",
                    asn=index,
                    router_id=Ipv4Address.parse("0.0.0.0"),  # fixed up later
                )
            )

    def _next_interface(self, router: str) -> str:
        count = self._interface_counts.get(router, 0)
        self._interface_counts[router] = count + 1
        return f"eth0/{count}"

    def link(self, a: int, b: int) -> None:
        """Join ``Ra`` and ``Rb`` with the next ``10.k.0.0/24`` subnet."""
        low, high = sorted((a, b))
        self._link_count += 1
        subnet = Prefix.parse(f"10.{self._link_count}.0.0/24")
        low_name, high_name = f"R{low}", f"R{high}"
        low_address = Ipv4Address.parse(f"10.{self._link_count}.0.1")
        high_address = Ipv4Address.parse(f"10.{self._link_count}.0.2")
        low_interface = self._next_interface(low_name)
        high_interface = self._next_interface(high_name)
        low_spec = self.topology.router(low_name)
        high_spec = self.topology.router(high_name)
        low_spec.interfaces.append(
            InterfaceSpec(name=low_interface, address=low_address, prefix=subnet)
        )
        high_spec.interfaces.append(
            InterfaceSpec(name=high_interface, address=high_address, prefix=subnet)
        )
        low_spec.neighbors.append(
            NeighborSpec(ip=high_address, asn=high, peer_name=high_name)
        )
        high_spec.neighbors.append(
            NeighborSpec(ip=low_address, asn=low, peer_name=low_name)
        )
        low_spec.networks.append(subnet)
        self.topology.links.append(
            Link(
                router_a=low_name,
                interface_a=low_interface,
                router_b=high_name,
                interface_b=high_interface,
                subnet=subnet,
            )
        )

    def attach_customer(self, index: int = 1, ordinal: int = 1) -> None:
        """Attach customer ``ordinal`` (1-based) to router ``R<index>``.

        The first customer keeps the classic name/subnet (``CUSTOMER``
        on ``100.0.0.0/24``, AS 65001); customer ``c`` is
        ``CUSTOMER_c`` on ``100.(c-1).0.0/24`` with AS ``65000 + c``.
        """
        router_name = f"R{index}"
        spec = self.topology.router(router_name)
        subnet = (
            Prefix.parse(CUSTOMER_SUBNET)
            if ordinal == 1
            else Prefix.parse(f"100.{ordinal - 1}.0.0/24")
        )
        address = Ipv4Address.parse(f"100.{ordinal - 1}.0.1")
        peer_ip = Ipv4Address.parse(f"100.{ordinal - 1}.0.2")
        peer_name = "CUSTOMER" if ordinal == 1 else f"CUSTOMER_{ordinal}"
        peer_asn = CUSTOMER_ASN + (ordinal - 1)
        interface = self._next_interface(router_name)
        spec.interfaces.append(
            InterfaceSpec(name=interface, address=address, prefix=subnet)
        )
        spec.neighbors.append(
            NeighborSpec(ip=peer_ip, asn=peer_asn, peer_name=peer_name)
        )
        spec.networks.append(subnet)
        self.topology.externals.append(
            ExternalPeer(
                router=router_name,
                interface=interface,
                peer_name=peer_name,
                peer_ip=peer_ip,
                peer_asn=peer_asn,
            )
        )

    def attach_isp(
        self,
        index: int,
        isp_index: Optional[int] = None,
        home: int = 1,
        peer: bool = False,
    ) -> None:
        """Attach one home of ISP/peer ``isp_index`` to ``R<index>``.

        ``isp_index`` defaults to the router's own index (the legacy
        single-homed convention); ``home`` numbers the attachment
        subnets of a multi-homed ISP (``200.j.(home-1).0/24`` — home 1
        keeps the classic ``200.j.0.0/24``); ``peer=True`` names the
        attachment ``PEER_j``: transit-forbidden like an ISP, but with
        no customer-reachability obligation.
        """
        router_name = f"R{index}"
        isp = index if isp_index is None else isp_index
        spec = self.topology.router(router_name)
        subnet = Prefix.parse(f"200.{isp}.{home - 1}.0/24")
        address = Ipv4Address.parse(f"200.{isp}.{home - 1}.1")
        peer_ip = Ipv4Address.parse(f"200.{isp}.{home - 1}.2")
        peer_name = f"{'PEER' if peer else 'ISP'}_{isp}"
        interface = self._next_interface(router_name)
        spec.interfaces.append(
            InterfaceSpec(name=interface, address=address, prefix=subnet)
        )
        spec.neighbors.append(
            NeighborSpec(ip=peer_ip, asn=1000 + isp, peer_name=peer_name)
        )
        spec.networks.append(subnet)
        self.topology.externals.append(
            ExternalPeer(
                router=router_name,
                interface=interface,
                peer_name=peer_name,
                peer_ip=peer_ip,
                peer_asn=1000 + isp,
            )
        )

    def finish(self, family: str) -> GeneratedNetwork:
        for name in self.topology.router_names():
            spec = self.topology.router(name)
            if not spec.interfaces:
                raise ValueError(f"router {name} ended up unconnected")
            spec.router_id = spec.interfaces[0].address
        from .generator import _describe

        return GeneratedNetwork(
            topology=self.topology,
            description=_describe(self.topology),
            family=family,
        )


def check_size(family: str, size: int) -> None:
    """Raise ``ValueError`` unless ``family`` builds at ``size`` routers.

    The star keeps its generator's wider upper bound.
    """
    top = MAX_ROUTERS if family == "star" else MAX_SIZE
    if not MIN_SIZE <= size <= top:
        raise ValueError(
            f"{family} size must be in [{MIN_SIZE}, {top}], got {size}"
        )


# -- the families ------------------------------------------------------------


def generate_chain_network(size: int) -> GeneratedNetwork:
    """``R1 - R2 - ... - Rn``; CUSTOMER at R1, ISPs at R2..Rn."""
    check_size("chain", size)
    builder = _Builder(f"chain-{size}", size)
    for index in range(1, size):
        builder.link(index, index + 1)
    builder.attach_customer()
    for index in range(2, size + 1):
        builder.attach_isp(index)
    return builder.finish("chain")


def generate_ring_network(size: int) -> GeneratedNetwork:
    """A chain closed into a cycle; CUSTOMER at R1, ISPs at R2..Rn."""
    check_size("ring", size)
    builder = _Builder(f"ring-{size}", size)
    for index in range(1, size):
        builder.link(index, index + 1)
    builder.link(size, 1)
    builder.attach_customer()
    for index in range(2, size + 1):
        builder.attach_isp(index)
    return builder.finish("ring")


def generate_mesh_network(size: int) -> GeneratedNetwork:
    """Every router pair directly linked; CUSTOMER at R1, ISPs at
    R2..Rn."""
    check_size("mesh", size)
    builder = _Builder(f"mesh-{size}", size)
    for a in range(1, size + 1):
        for b in range(a + 1, size + 1):
            builder.link(a, b)
    builder.attach_customer()
    for index in range(2, size + 1):
        builder.attach_isp(index)
    return builder.finish("mesh")


def generate_dumbbell_network(size: int) -> GeneratedNetwork:
    """Two cores (R1, R2) joined by one bottleneck link; the remaining
    routers hang off the cores alternately.  CUSTOMER at R1; ISPs on the
    leaves only — the cores stay policy-free transit routers."""
    check_size("dumbbell", size)
    builder = _Builder(f"dumbbell-{size}", size)
    builder.link(1, 2)
    for index in range(3, size + 1):
        builder.link(1 if index % 2 == 1 else 2, index)
    builder.attach_customer()
    for index in range(3, size + 1):
        builder.attach_isp(index)
    return builder.finish("dumbbell")


def _generate_star(size: int) -> GeneratedNetwork:
    check_size("star", size)
    star = generate_star_network(size)
    return GeneratedNetwork(
        topology=star.topology, description=star.description, family="star"
    )


from .randomnet import (  # noqa: E402  (needs _Builder defined above)
    generate_random_network,
    generate_waxman_network,
)

FAMILIES: Dict[str, Callable[..., GeneratedNetwork]] = {
    "star": _generate_star,
    "chain": generate_chain_network,
    "ring": generate_ring_network,
    "mesh": generate_mesh_network,
    "dumbbell": generate_dumbbell_network,
    "random": generate_random_network,
    "waxman": generate_waxman_network,
}

# Families whose generator takes (size, seed, roles, params); the
# hand-shaped families take only a size and reject the other axes.
SEEDED_FAMILIES = frozenset({"random", "waxman"})


def check_fixed_layout(
    family: str,
    roles: "object | str | None",
    params: "Dict[str, float] | str | None",
    place: "str | None",
) -> None:
    """Reject a role spec, topology knobs, or a placement strategy for a
    hand-shaped family rather than silently ignore them."""
    from .randomnet import coerce_placement, parse_topo_params
    from .roles import RoleSpec

    seeded = ", ".join(sorted(SEEDED_FAMILIES))
    if RoleSpec.coerce(roles) is not None:
        raise ValueError(
            f"family {family!r} has a fixed role layout; role specs "
            f"apply to the seeded families ({seeded})"
        )
    if parse_topo_params(params):
        raise ValueError(
            f"family {family!r} takes no topology knobs; knobs apply to "
            f"the seeded families ({seeded})"
        )
    if coerce_placement(place) != "seeded":
        raise ValueError(
            f"family {family!r} has a fixed role layout; placement "
            f"strategies apply to the seeded families ({seeded})"
        )


def generate_network(
    family: str,
    size: int,
    seed: int = 0,
    roles: "object | str | None" = None,
    params: "Dict[str, float] | str | None" = None,
    place: "str | None" = None,
) -> GeneratedNetwork:
    """Generate one network of the named family.

    ``seed``, ``roles`` (a :class:`~repro.topology.roles.RoleSpec` or
    its string form, e.g. ``c2i3h2``), ``params`` (family knobs, e.g.
    ``p=0.4`` or ``alpha=0.5,beta=0.7``), and ``place`` (role-placement
    strategy: ``seeded`` or ``degree``) apply to the seeded random
    families only; the hand-shaped families are fully determined by
    their size and reject non-default values rather than silently
    ignoring them.
    """
    try:
        generator = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown family {family!r} (known: {known})") from None
    if family in SEEDED_FAMILIES:
        return generator(size, seed=seed, roles=roles, params=params, place=place)
    check_fixed_layout(family, roles, params, place)
    return generator(size)
