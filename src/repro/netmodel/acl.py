"""IPv4 access lists (standard ACLs).

§3.1 names "route maps or access control lists" as the sources of policy
behaviour differences.  Standard ACLs match a route's network address
under a wildcard mask (1-bits = don't care); used inside a route-map via
``match ip address <acl>`` they filter route advertisements exactly like
prefix lists, but length-insensitively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .ip import AddressError, Ipv4Address, Prefix, PrefixRange
from .value import ImmutableValue

__all__ = ["AccessList", "AclEntry"]


@dataclass(frozen=True)
class AclEntry(ImmutableValue):
    """One permit/deny line of a standard ACL."""

    action: str
    address: int
    wildcard: int  # bits set = don't care

    def __post_init__(self) -> None:
        if self.action not in ("permit", "deny"):
            raise AddressError(f"invalid ACL action {self.action!r}")

    @classmethod
    def from_strings(cls, action: str, address: str, wildcard: str = "0.0.0.0") -> "AclEntry":
        return cls(
            action=action,
            address=Ipv4Address.parse(address).value,
            wildcard=Ipv4Address.parse(wildcard).value,
        )

    @classmethod
    def any(cls, action: str = "permit") -> "AclEntry":
        """The ``permit any`` form."""
        return cls(action=action, address=0, wildcard=0xFFFFFFFF)

    def matches_address(self, value: int) -> bool:
        care = ~self.wildcard & 0xFFFFFFFF
        return (value & care) == (self.address & care)

    def matches_prefix(self, prefix: Prefix) -> bool:
        """A standard ACL in a route-map matches the network address."""
        return self.matches_address(prefix.network)

    def is_contiguous(self) -> bool:
        """True when the wildcard is a contiguous low-bit mask, i.e. the
        entry is expressible as a prefix."""
        inverted = ~self.wildcard & 0xFFFFFFFF
        return (self.wildcard & (self.wildcard + 1)) == 0 or inverted == 0xFFFFFFFF

    def as_prefix_ranges(self) -> List[PrefixRange]:
        """The exact prefix-range decomposition for contiguous wildcards.

        The ACL matches a prefix iff the prefix's *network address* falls
        in the masked space.  That is the orlonger cone of the base
        prefix, plus every shorter prefix whose canonical network equals
        the base address (e.g. ``permit 20.0.0.0 0.255.255.255`` also
        matches 20.0.0.0/6 and 20.0.0.0/7, whose network is 20.0.0.0).
        """
        if not self.is_contiguous():
            return []
        length = 32 - self.wildcard.bit_length() if self.wildcard else 32
        base = Prefix(self.address, length)
        ranges = [PrefixRange.orlonger(base)]
        for shorter in range(length - 1, 0, -1):
            aligned = Prefix(base.network, shorter)
            if aligned.network != base.network:
                break  # alignment fails for this and all shorter lengths
            ranges.append(PrefixRange.exact(aligned))
        return ranges

    def render_cisco(self) -> str:
        if self.wildcard == 0xFFFFFFFF:
            return f"{self.action} any"
        address = str(Ipv4Address(self.address))
        if self.wildcard == 0:
            return f"{self.action} host {address}"
        return f"{self.action} {address} {Ipv4Address(self.wildcard)}"


@dataclass
class AccessList:
    """A named or numbered standard ACL (first match wins, default deny)."""

    name: str
    entries: List[AclEntry] = field(default_factory=list)

    def add(self, entry: AclEntry) -> AclEntry:
        self.entries.append(entry)
        return entry

    def permits_prefix(self, prefix: Prefix) -> bool:
        for entry in self.entries:
            if entry.matches_prefix(prefix):
                return entry.action == "permit"
        return False

    def permitted_ranges(self) -> List[PrefixRange]:
        """Prefix ranges of the permit entries (contiguous ones only) —
        the symbolic engine's view of the matchable space."""
        ranges: List[PrefixRange] = []
        for entry in self.entries:
            if entry.action != "permit":
                continue
            ranges.extend(entry.as_prefix_ranges())
        return ranges
