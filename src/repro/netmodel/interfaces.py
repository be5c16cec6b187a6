"""Interface model shared by both vendors.

Interfaces carry the attributes the experiments verify: an address, an
OSPF cost, and an OSPF passive flag (the two attribute-difference rows of
Table 2), plus the physical naming needed by the topology verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ip import Ipv4Address, Prefix

__all__ = ["Interface"]


@dataclass
class Interface:
    """A router interface.

    ``address`` is the interface's own address; ``prefix`` the connected
    subnet.  ``ospf_cost`` of ``None`` means the vendor default (the
    Table 2 OSPF-cost row is a translated ``None`` vs explicit 0
    mismatch).
    """

    name: str
    address: Optional[Ipv4Address] = None
    prefix: Optional[Prefix] = None
    description: str = ""
    ospf_cost: Optional[int] = None
    ospf_passive: bool = False
    ospf_area: Optional[int] = None
    shutdown: bool = False
    unit: int = 0

    def is_loopback(self) -> bool:
        """True for loopback interfaces on either vendor naming scheme."""
        lowered = self.name.lower()
        return lowered.startswith("loopback") or lowered.startswith("lo")
