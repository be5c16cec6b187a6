"""Star network generator (Figure 4).

§4.1: "We wrote an automated script that generates text given the
topology as input ... The 'network generator' therefore only needs the
number of routers as input.  It has two outputs: 1) a textual
description and 2) a JSON dictionary for the entire network topology."

Addressing scheme (consistent with Table 3's examples):

* routers ``R1..Rn``, router ``Ri`` in AS ``i``;
* hub link R1–Ri (i ≥ 2) uses subnet ``(i-1).0.0.0/24`` with R1 at
  ``(i-1).0.0.1`` and Ri at ``(i-1).0.0.2`` (so R2's neighbor is
  ``1.0.0.1 AS 1`` and R2's router-id is ``1.0.0.2``, as in Table 3);
* R1's customer attachment uses ``100.0.0.0/24`` (CUSTOMER at
  ``100.0.0.2``);
* Ri's ISP attachment uses ``200.i.0.0/24`` (ISP_i at ``200.i.0.2``,
  AS ``1000 + i``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..netmodel.communities import Community
from ..netmodel.ip import Ipv4Address, Prefix
from .model import (
    ExternalPeer,
    InterfaceSpec,
    Link,
    NeighborSpec,
    RouterSpec,
    Topology,
)

__all__ = ["StarNetwork", "generate_star_network", "ingress_community"]

MIN_ROUTERS = 2
MAX_ROUTERS = 50  # keeps the 200.i.0.0/24 scheme inside one octet

CUSTOMER_ASN = 65001
CUSTOMER_SUBNET = "100.0.0.0/24"


def ingress_community(router_index: int) -> Community:
    """The community R1 tags on routes arriving from ``R<router_index>``.

    §4.2 associates ``100:1`` with R2, ``101:1`` with R3, and so on.
    """
    if router_index < 2:
        raise ValueError("ingress communities exist only for spoke routers")
    return Community(98 + router_index, 1)


@dataclass
class StarNetwork:
    """Generator output: the JSON-able topology plus the prose prompt."""

    topology: Topology
    description: str


def generate_star_network(router_count: int) -> StarNetwork:
    """Build the n-router star of Figure 4."""
    if not MIN_ROUTERS <= router_count <= MAX_ROUTERS:
        raise ValueError(
            f"router_count must be in [{MIN_ROUTERS}, {MAX_ROUTERS}], "
            f"got {router_count}"
        )
    topology = Topology(name=f"star-{router_count}")
    hub = RouterSpec(
        name="R1",
        asn=1,
        router_id=Ipv4Address.parse("100.0.0.1"),
    )
    hub.interfaces.append(
        InterfaceSpec(
            name="eth0/0",
            address=Ipv4Address.parse("100.0.0.1"),
            prefix=Prefix.parse(CUSTOMER_SUBNET),
        )
    )
    hub.neighbors.append(
        NeighborSpec(
            ip=Ipv4Address.parse("100.0.0.2"),
            asn=CUSTOMER_ASN,
            peer_name="CUSTOMER",
        )
    )
    hub.networks.append(Prefix.parse(CUSTOMER_SUBNET))
    topology.add_router(hub)
    topology.externals.append(
        ExternalPeer(
            router="R1",
            interface="eth0/0",
            peer_name="CUSTOMER",
            peer_ip=Ipv4Address.parse("100.0.0.2"),
            peer_asn=CUSTOMER_ASN,
        )
    )
    for index in range(2, router_count + 1):
        _add_spoke(topology, hub, index)
    description = _describe(topology)
    return StarNetwork(topology=topology, description=description)


def _add_spoke(topology: Topology, hub: RouterSpec, index: int) -> None:
    subnet = Prefix.parse(f"{index - 1}.0.0.0/24")
    hub_address = Ipv4Address.parse(f"{index - 1}.0.0.1")
    spoke_address = Ipv4Address.parse(f"{index - 1}.0.0.2")
    isp_subnet = Prefix.parse(f"200.{index}.0.0/24")
    isp_router_address = Ipv4Address.parse(f"200.{index}.0.1")
    isp_peer_address = Ipv4Address.parse(f"200.{index}.0.2")
    isp_asn = 1000 + index
    spoke = RouterSpec(
        name=f"R{index}",
        asn=index,
        router_id=spoke_address,
    )
    spoke.interfaces.append(
        InterfaceSpec(name="eth0/0", address=spoke_address, prefix=subnet)
    )
    spoke.interfaces.append(
        InterfaceSpec(name="eth0/1", address=isp_router_address, prefix=isp_subnet)
    )
    spoke.neighbors.append(
        NeighborSpec(ip=hub_address, asn=hub.asn, peer_name="R1")
    )
    spoke.neighbors.append(
        NeighborSpec(ip=isp_peer_address, asn=isp_asn, peer_name=f"ISP_{index}")
    )
    spoke.networks.append(subnet)
    spoke.networks.append(isp_subnet)
    topology.add_router(spoke)
    hub_interface = f"eth0/{index - 1}"
    hub.interfaces.append(
        InterfaceSpec(name=hub_interface, address=hub_address, prefix=subnet)
    )
    hub.neighbors.append(
        NeighborSpec(ip=spoke_address, asn=index, peer_name=f"R{index}")
    )
    topology.links.append(
        Link(
            router_a="R1",
            interface_a=hub_interface,
            router_b=f"R{index}",
            interface_b="eth0/0",
            subnet=subnet,
        )
    )
    topology.externals.append(
        ExternalPeer(
            router=f"R{index}",
            interface="eth0/1",
            peer_name=f"ISP_{index}",
            peer_ip=isp_peer_address,
            peer_asn=isp_asn,
        )
    )


def _describe(topology: Topology) -> str:
    """The prose the Modularizer feeds GPT-4 (§2: "Router R1 is connected
    to Router R2 via interface I1 at R1 and I2 at R2")."""
    sentences: List[str] = []
    names = topology.router_names()
    kind = topology.name.split("-")[0]
    if kind not in (
        "star", "chain", "ring", "mesh", "dumbbell", "random", "waxman"
    ):
        kind = "network"
    sentences.append(
        f"The network is a {kind} of {len(names)} routers named "
        f"{', '.join(names)}. Router Ri runs BGP in autonomous system i."
    )
    for link in topology.links:
        a_spec = topology.router(link.router_a).interface(link.interface_a)
        b_spec = topology.router(link.router_b).interface(link.interface_b)
        assert a_spec is not None and b_spec is not None
        sentences.append(
            f"Router {link.router_a} is connected to Router {link.router_b} "
            f"via interface {link.interface_a} at {link.router_a} and "
            f"{link.interface_b} at {link.router_b}; the link subnet is "
            f"{link.subnet}, {link.router_a} uses address {a_spec.address} "
            f"and {link.router_b} uses address {b_spec.address}."
        )
    for peer in topology.externals:
        sentences.append(
            f"Router {peer.router} is attached to {peer.peer_name} on "
            f"interface {peer.interface}; the peer's address is "
            f"{peer.peer_ip} in AS {peer.peer_asn}."
        )
    for name in names:
        router = topology.router(name)
        networks = ", ".join(str(prefix) for prefix in router.networks)
        sentences.append(
            f"Router {name} (router-id {router.router_id}) must announce "
            f"the networks: {networks}."
        )
    return "\n".join(sentences)
