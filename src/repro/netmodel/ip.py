"""IPv4 addressing primitives used throughout the vendor-neutral IR.

The reproduction deliberately implements addresses and prefixes from
scratch (rather than thinly wrapping :mod:`ipaddress`) so that the
symbolic analysis layer can manipulate raw integer forms directly and so
that error messages can mirror router-style notation exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from .value import ImmutableValue

__all__ = [
    "AddressError",
    "Ipv4Address",
    "Prefix",
    "PrefixRange",
]

_OCTET_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")

MAX_PREFIX_LENGTH = 32


class AddressError(ValueError):
    """Raised when an address or prefix string cannot be parsed."""


def _mask(length: int) -> int:
    """Return the 32-bit network mask integer for ``length`` bits."""
    if length == 0:
        return 0
    return ((1 << length) - 1) << (32 - length)


@dataclass(frozen=True, order=True)
class Ipv4Address(ImmutableValue):
    """A single IPv4 address stored as a 32-bit integer.

    >>> Ipv4Address.parse("10.0.0.1").value
    167772161
    >>> str(Ipv4Address.parse("10.0.0.1"))
    '10.0.0.1'
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise AddressError(f"address out of range: {self.value}")

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        """Parse dotted-quad notation, raising :class:`AddressError`."""
        match = _OCTET_RE.match(text.strip())
        if match is None:
            raise AddressError(f"invalid IPv4 address: {text!r}")
        octets = [int(group) for group in match.groups()]
        if any(octet > 255 for octet in octets):
            raise AddressError(f"octet out of range in {text!r}")
        value = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
        return cls(value)

    def __str__(self) -> str:
        # Neighbours are keyed by this string, so it is built once per
        # instance; the value is frozen, so the cache cannot go stale.
        # It is not a field: eq, hash and repr ignore it.
        text = self.__dict__.get("_dotted")
        if text is None:
            value = self.value
            text = f"{value >> 24}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"
            object.__setattr__(self, "_dotted", text)
        return text


@dataclass(frozen=True, order=True)
class Prefix(ImmutableValue):
    """An IPv4 prefix: a network address and a prefix length.

    The network address is canonicalized (host bits cleared) at
    construction so equality is structural.

    >>> str(Prefix.parse("1.2.3.4/24"))
    '1.2.3.0/24'
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= MAX_PREFIX_LENGTH:
            raise AddressError(f"invalid prefix length: {self.length}")
        canonical = self.network & _mask(self.length)
        if canonical != self.network:
            object.__setattr__(self, "network", canonical)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` notation."""
        text = text.strip()
        if "/" not in text:
            raise AddressError(f"prefix missing length: {text!r}")
        addr_part, _, len_part = text.partition("/")
        address = Ipv4Address.parse(addr_part)
        try:
            length = int(len_part)
        except ValueError as exc:
            raise AddressError(f"invalid prefix length in {text!r}") from exc
        if not 0 <= length <= MAX_PREFIX_LENGTH:
            raise AddressError(f"prefix length out of range in {text!r}")
        return cls(address.value & _mask(length), length)

    @classmethod
    def from_address_mask(cls, address: str, mask: str) -> "Prefix":
        """Build a prefix from an address and a dotted-quad subnet mask.

        Cisco interface stanzas use ``ip address 10.0.0.1 255.255.255.0``.
        """
        addr = Ipv4Address.parse(address)
        mask_value = Ipv4Address.parse(mask).value
        length = bin(mask_value).count("1")
        if _mask(length) != mask_value:
            raise AddressError(f"non-contiguous mask: {mask!r}")
        return cls(addr.value & mask_value, length)

    @property
    def address(self) -> Ipv4Address:
        """The network address as an :class:`Ipv4Address`."""
        return Ipv4Address(self.network)

    def mask_string(self) -> str:
        """The subnet mask in dotted-quad form (Cisco style)."""
        return str(Ipv4Address(_mask(self.length)))

    def wildcard_string(self) -> str:
        """The inverse (wildcard) mask in dotted-quad form."""
        return str(Ipv4Address(~_mask(self.length) & 0xFFFFFFFF))

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if other.length < self.length:
            return False
        return (other.network & _mask(self.length)) == self.network

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    def __str__(self) -> str:
        return f"{self.address}/{self.length}"


@dataclass(frozen=True, order=True)
class PrefixRange(ImmutableValue):
    """A prefix plus a permitted range of more-specific lengths.

    Models Cisco ``ip prefix-list ... permit 1.2.3.0/24 ge 24 le 32`` and
    Junos ``route-filter 1.2.3.0/24 prefix-length-range /24-/32``: a route's
    prefix matches if it falls under :attr:`prefix` and its length lies in
    ``[low, high]``.
    """

    prefix: Prefix
    low: int
    high: int

    def __post_init__(self) -> None:
        if not self.prefix.length <= self.low <= self.high <= MAX_PREFIX_LENGTH:
            raise AddressError(
                f"invalid length range {self.low}-{self.high} "
                f"for {self.prefix}"
            )

    @classmethod
    def exact(cls, prefix: Prefix) -> "PrefixRange":
        """A range matching exactly one prefix."""
        return cls(prefix, prefix.length, prefix.length)

    @classmethod
    def orlonger(cls, prefix: Prefix) -> "PrefixRange":
        """Junos ``orlonger``: the prefix and everything beneath it."""
        return cls(prefix, prefix.length, MAX_PREFIX_LENGTH)

    def matches(self, candidate: Prefix) -> bool:
        """True if ``candidate`` is covered with a length in range."""
        return (
            self.prefix.contains(candidate)
            and self.low <= candidate.length <= self.high
        )

    def is_exact(self) -> bool:
        """True if only the prefix itself can match."""
        return self.low == self.high == self.prefix.length

    def intersect(self, other: "PrefixRange") -> "PrefixRange | None":
        """The range matching exactly the prefixes both ranges match."""
        if self.prefix.contains(other.prefix):
            base = other.prefix
        elif other.prefix.contains(self.prefix):
            base = self.prefix
        else:
            return None
        low = max(self.low, other.low, base.length)
        high = min(self.high, other.high)
        if low > high:
            return None
        return PrefixRange(base, low, high)

    def subtract(self, other: "PrefixRange") -> List["PrefixRange"]:
        """Ranges matching what ``self`` matches but ``other`` does not.

        The result is a disjoint list.  Used by the symbolic engine to
        compute policy-behaviour differences.
        """
        common = self.intersect(other)
        if common is None:
            return [self]
        pieces: List[PrefixRange] = []
        # Length-band leftovers over the same base as ``self``.
        if self.low < common.low:
            pieces.append(PrefixRange(self.prefix, self.low, common.low - 1))
        if common.high < self.high:
            pieces.append(PrefixRange(self.prefix, common.high + 1, self.high))
        # Address-space leftovers: parts of self's cone outside other's cone.
        if other.prefix.length > self.prefix.length and self.prefix.contains(
            other.prefix
        ):
            low = max(self.low, common.low)
            high = min(self.high, common.high)
            if low <= high:
                for sibling in _cone_complement(self.prefix, other.prefix):
                    band_low = max(low, sibling.length)
                    if band_low <= high:
                        pieces.append(PrefixRange(sibling, band_low, high))
        return pieces

    def __str__(self) -> str:
        if self.is_exact():
            return str(self.prefix)
        return f"{self.prefix} ge {self.low} le {self.high}"


def _cone_complement(outer: Prefix, inner: Prefix) -> List[Prefix]:
    """Prefixes covering ``outer`` minus ``inner``.

    Standard binary-trie walk: at each level from ``outer`` down to
    ``inner``, emit the sibling of the branch taken.
    """
    if not outer.contains(inner):
        raise AddressError(f"{inner} not inside {outer}")
    siblings: List[Prefix] = []
    for length in range(outer.length + 1, inner.length + 1):
        branch_bit = 1 << (32 - length)
        taken = inner.network & _mask(length)
        siblings.append(Prefix(taken ^ branch_bit, length))
    return siblings
