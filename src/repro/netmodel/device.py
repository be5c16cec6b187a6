"""The vendor-neutral router configuration: the IR both parsers target.

A :class:`RouterConfig` is what the verifiers reason about.  The Cisco
and Juniper parsers produce one; the generators consume one; Campion
diffs two; the topology verifier compares one against the JSON topology;
and the BGP simulator runs a set of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .acl import AccessList
from .aspath import AsPathAccessList
from .bgp import BgpProcess
from .communities import CommunityList
from .interfaces import Interface
from .ospf import OspfProcess
from .prefixlist import PrefixList
from .routing_policy import RouteMap

__all__ = ["Vendor", "RouterConfig"]


class Vendor(enum.Enum):
    """Configuration dialect."""

    CISCO = "cisco"
    JUNIPER = "juniper"


@dataclass
class RouterConfig:
    """A complete single-router configuration in vendor-neutral form.

    Implements the :class:`~repro.netmodel.routing_policy.PolicyContext`
    protocol so route maps can be evaluated directly against it.
    """

    hostname: str
    vendor: Vendor = Vendor.CISCO
    interfaces: Dict[str, Interface] = field(default_factory=dict)
    bgp: Optional[BgpProcess] = None
    ospf: Optional[OspfProcess] = None
    route_maps: Dict[str, RouteMap] = field(default_factory=dict)
    prefix_lists: Dict[str, PrefixList] = field(default_factory=dict)
    community_lists: Dict[str, CommunityList] = field(default_factory=dict)
    as_path_lists: Dict[str, AsPathAccessList] = field(default_factory=dict)
    access_lists: Dict[str, AccessList] = field(default_factory=dict)

    # -- PolicyContext protocol -------------------------------------------

    def get_prefix_list(self, name: str) -> Optional[PrefixList]:
        return self.prefix_lists.get(name)

    def get_community_list(self, name: str) -> Optional[CommunityList]:
        return self.community_lists.get(name)

    def get_as_path_list(self, name: str) -> Optional[AsPathAccessList]:
        return self.as_path_lists.get(name)

    def get_access_list(self, name: str) -> Optional[AccessList]:
        return self.access_lists.get(name)

    # -- construction helpers ---------------------------------------------

    def add_interface(self, interface: Interface) -> Interface:
        self.interfaces[interface.name] = interface
        return interface

    def get_interface(self, name: str) -> Optional[Interface]:
        return self.interfaces.get(name)

    def add_route_map(self, route_map: RouteMap) -> RouteMap:
        self.route_maps[route_map.name] = route_map
        return route_map

    def get_route_map(self, name: str) -> Optional[RouteMap]:
        return self.route_maps.get(name)

    def add_prefix_list(self, prefix_list: PrefixList) -> PrefixList:
        self.prefix_lists[prefix_list.name] = prefix_list
        return prefix_list

    def add_community_list(self, community_list: CommunityList) -> CommunityList:
        self.community_lists[community_list.name] = community_list
        return community_list

    def add_as_path_list(self, as_path_list: AsPathAccessList) -> AsPathAccessList:
        self.as_path_lists[as_path_list.name] = as_path_list
        return as_path_list

    def add_access_list(self, access_list: AccessList) -> AccessList:
        self.access_lists[access_list.name] = access_list
        return access_list

    def ensure_bgp(self, asn: int) -> BgpProcess:
        """Get the BGP process, creating it with ``asn`` if absent."""
        if self.bgp is None:
            self.bgp = BgpProcess(asn=asn)
        return self.bgp

    def ensure_ospf(self, process_id: int = 1) -> OspfProcess:
        if self.ospf is None:
            self.ospf = OspfProcess(process_id=process_id)
        return self.ospf

    # -- queries used by verifiers ------------------------------------------

    def sorted_interfaces(self) -> List[Interface]:
        return [self.interfaces[name] for name in sorted(self.interfaces)]

    def undefined_references(self) -> List[str]:
        """Names referenced by policy attachments but never defined.

        Campion reports these as structural problems; the syntax checker
        also surfaces them as warnings.
        """
        missing: List[str] = []
        if self.bgp is not None:
            for neighbor in self.bgp.sorted_neighbors():
                for policy in (neighbor.import_policy, neighbor.export_policy):
                    if policy is not None and policy not in self.route_maps:
                        missing.append(f"route-map {policy}")
            for redistribution in self.bgp.redistributions:
                name = redistribution.route_map
                if name is not None and name not in self.route_maps:
                    missing.append(f"route-map {name}")
        for route_map in self.route_maps.values():
            for name in route_map.referenced_prefix_lists():
                if name not in self.prefix_lists:
                    missing.append(f"prefix-list {name}")
            for name in route_map.referenced_community_lists():
                if name not in self.community_lists:
                    missing.append(f"community-list {name}")
        return missing
