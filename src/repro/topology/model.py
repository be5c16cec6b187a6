"""Topology model: the machine-readable network description.

§2's Modularizer "start[s] with a precise machine readable (we use JSON)
description of the 'modules' which in our case is the topology and the
connections".  This module defines that JSON schema and its in-memory
form: routers with interfaces, AS numbers, announced networks, internal
links, and external peers (ISPs / the CUSTOMER).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..netmodel.ip import Ipv4Address, Prefix

__all__ = [
    "ExternalPeer",
    "InterfaceSpec",
    "Link",
    "NeighborSpec",
    "RouterSpec",
    "Topology",
]


@dataclass(frozen=True)
class InterfaceSpec:
    """An interface a router must configure: name plus address/len."""

    name: str
    address: Ipv4Address
    prefix: Prefix

    def cidr(self) -> str:
        return f"{self.address}/{self.prefix.length}"


@dataclass(frozen=True)
class NeighborSpec:
    """A BGP neighbor a router must declare: peer address plus AS."""

    ip: Ipv4Address
    asn: int
    peer_name: str = ""  # "R2", "ISP_3", "CUSTOMER" — for prose only


@dataclass
class RouterSpec:
    """Everything the topology dictates about one router."""

    name: str
    asn: int
    router_id: Ipv4Address
    interfaces: List[InterfaceSpec] = field(default_factory=list)
    neighbors: List[NeighborSpec] = field(default_factory=list)
    networks: List[Prefix] = field(default_factory=list)

    def interface(self, name: str) -> Optional[InterfaceSpec]:
        for spec in self.interfaces:
            if spec.name == name:
                return spec
        return None

    def connected_prefixes(self) -> List[Prefix]:
        return [spec.prefix for spec in self.interfaces]

    def neighbor_with_ip(self, ip: Ipv4Address) -> Optional[NeighborSpec]:
        for spec in self.neighbors:
            if spec.ip == ip:
                return spec
        return None


@dataclass(frozen=True)
class Link:
    """An internal point-to-point link between two routers."""

    router_a: str
    interface_a: str
    router_b: str
    interface_b: str
    subnet: Prefix


@dataclass(frozen=True)
class ExternalPeer:
    """An external attachment (an ISP or the CUSTOMER)."""

    router: str
    interface: str
    peer_name: str
    peer_ip: Ipv4Address
    peer_asn: int


@dataclass
class Topology:
    """The full network: routers, internal links, external peers."""

    name: str = "network"
    routers: Dict[str, RouterSpec] = field(default_factory=dict)
    links: List[Link] = field(default_factory=list)
    externals: List[ExternalPeer] = field(default_factory=list)

    def add_router(self, router: RouterSpec) -> RouterSpec:
        self.routers[router.name] = router
        return router

    def router(self, name: str) -> RouterSpec:
        return self.routers[name]

    def router_names(self) -> List[str]:
        return sorted(self.routers, key=_router_sort_key)

    # -- JSON export -----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "routers": {
                name: {
                    "asn": router.asn,
                    "router_id": str(router.router_id),
                    "interfaces": {
                        spec.name: spec.cidr() for spec in router.interfaces
                    },
                    "neighbors": [
                        {
                            "ip": str(spec.ip),
                            "asn": spec.asn,
                            "peer": spec.peer_name,
                        }
                        for spec in router.neighbors
                    ],
                    "networks": [str(prefix) for prefix in router.networks],
                }
                for name, router in self.routers.items()
            },
            "links": [
                {
                    "a": [link.router_a, link.interface_a],
                    "b": [link.router_b, link.interface_b],
                    "subnet": str(link.subnet),
                }
                for link in self.links
            ],
            "external_peers": [
                {
                    "router": item.router,
                    "interface": item.interface,
                    "peer": item.peer_name,
                    "peer_ip": str(item.peer_ip),
                    "peer_asn": item.peer_asn,
                }
                for item in self.externals
            ],
        }


def _router_sort_key(name: str) -> Tuple[int, str]:
    """Sort R2 before R10 (numeric suffix aware)."""
    digits = "".join(char for char in name if char.isdigit())
    return (int(digits) if digits else 0, name)
