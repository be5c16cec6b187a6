"""BGP community values and community lists.

Communities are the central mechanism in the paper's second use case: the
no-transit policy tags routes with a community on ingress at the hub
router and filters on those communities at egress (§4).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Tuple

from .value import ImmutableValue

__all__ = [
    "Community",
    "CommunityList",
    "CommunityListEntry",
    "CommunityError",
    "EMPTY_COMMUNITIES",
    "intern_communities",
]

_COMMUNITY_RE = re.compile(r"^(\d+):(\d+)$")


class CommunityError(ValueError):
    """Raised for malformed community values or lists."""


@dataclass(frozen=True, order=True)
class Community(ImmutableValue):
    """A standard BGP community ``asn:value``.

    >>> Community.parse("100:1")
    Community(asn=100, value=1)
    """

    asn: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.asn <= 0xFFFF or not 0 <= self.value <= 0xFFFF:
            raise CommunityError(f"community out of range: {self.asn}:{self.value}")

    @classmethod
    def parse(cls, text: str) -> "Community":
        match = _COMMUNITY_RE.match(text.strip())
        if match is None:
            raise CommunityError(f"invalid community: {text!r}")
        return cls(int(match.group(1)), int(match.group(2)))

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


EMPTY_COMMUNITIES: FrozenSet[Community] = frozenset()

# value-keyed identity map: one canonical frozenset per distinct
# community set (frozensets cache their hash, so repeated lookups with
# the same canonical instance cost a pointer compare).
_INTERNED_SETS: Dict[FrozenSet[Community], FrozenSet[Community]] = {}


def intern_communities(
    communities: Iterable[Community],
) -> FrozenSet[Community]:
    """The canonical (interned) frozenset for a community collection.

    Same-valued route community sets become ``is``-identical, making the
    hot equality/hash checks of best-path selection and attribute
    diffing pointer-cheap.  Value semantics are untouched: the canonical
    instance is ``==`` to any equal frozenset.
    """
    members = (
        communities
        if type(communities) is frozenset
        else frozenset(communities)
    )
    if not members:
        return EMPTY_COMMUNITIES
    return _INTERNED_SETS.setdefault(members, members)


@dataclass(frozen=True)
class CommunityListEntry(ImmutableValue):
    """One ``permit``/``deny`` line of a community list.

    ``communities`` may contain several values; Cisco semantics require a
    route to carry *all* of them for the entry to match (AND within an
    entry, OR across entries).  ``regex`` entries (expanded community
    lists) match against the string form of any carried community.
    """

    action: str
    communities: Tuple[Community, ...] = ()
    regex: "str | None" = None

    def __post_init__(self) -> None:
        if self.action not in ("permit", "deny"):
            raise CommunityError(f"invalid action: {self.action!r}")
        if not self.communities and self.regex is None:
            raise CommunityError("entry needs communities or a regex")

    def matches(self, carried: FrozenSet[Community]) -> bool:
        """True if a route carrying ``carried`` satisfies this entry."""
        if self.regex is not None:
            pattern = re.compile(self.regex)
            return any(pattern.search(str(item)) for item in carried)
        return all(item in carried for item in self.communities)


@dataclass
class CommunityList:
    """A named, ordered community list (standard or expanded).

    First matching entry decides; no match means the list denies.
    """

    name: str
    entries: List[CommunityListEntry] = field(default_factory=list)

    def add(self, entry: CommunityListEntry) -> None:
        self.entries.append(entry)

    def permits(self, carried: Iterable[Community]) -> bool:
        """Whether a route with the given communities passes the list."""
        carried_set = frozenset(carried)
        for entry in self.entries:
            if entry.matches(carried_set):
                return entry.action == "permit"
        return False

    def permitted_communities(self) -> FrozenSet[Community]:
        """All explicit community values on permit entries.

        Used by the symbolic engine to reason about which tag a list is
        checking for, which is well-defined for the standard lists the
        experiments generate (one community per entry).
        """
        values = []
        for entry in self.entries:
            if entry.action == "permit":
                values.extend(entry.communities)
        return frozenset(values)
