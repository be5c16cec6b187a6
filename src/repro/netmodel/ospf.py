"""OSPF process model.

OSPF matters to the translation use case because link costs and passive
interfaces are Table 2's two attribute-difference rows.  The model keeps
the per-interface attributes on :class:`~repro.netmodel.interfaces.
Interface` and the process-level structure here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .ip import Ipv4Address, Prefix
from .value import ImmutableValue

__all__ = ["OspfNetworkStatement", "OspfProcess"]


@dataclass(frozen=True)
class OspfNetworkStatement(ImmutableValue):
    """A Cisco ``network <addr> <wildcard> area <n>`` statement."""

    prefix: Prefix
    area: int


@dataclass
class OspfProcess:
    """The ``router ospf <id>`` / ``protocols ospf`` block."""

    process_id: int = 1
    router_id: Optional[Ipv4Address] = None
    networks: List[OspfNetworkStatement] = field(default_factory=list)
    passive_interfaces: List[str] = field(default_factory=list)
    reference_bandwidth: Optional[int] = None
    # Junos attaches interfaces to areas explicitly.
    area_interfaces: Dict[int, List[str]] = field(default_factory=dict)

    def add_network(self, prefix: Prefix, area: int = 0) -> None:
        statement = OspfNetworkStatement(prefix, area)
        if statement not in self.networks:
            self.networks.append(statement)

    def add_area_interface(self, area: int, interface_name: str) -> None:
        members = self.area_interfaces.setdefault(area, [])
        if interface_name not in members:
            members.append(interface_name)

    def set_passive(self, interface_name: str) -> None:
        if interface_name not in self.passive_interfaces:
            self.passive_interfaces.append(interface_name)

    def is_passive(self, interface_name: str) -> bool:
        return interface_name in self.passive_interfaces

    def covers(self, prefix: Prefix) -> Optional[int]:
        """The area whose network statement covers ``prefix``, if any."""
        for statement in self.networks:
            if statement.prefix.contains(prefix):
                return statement.area
        return None
