"""AS paths and AS-path access lists.

AS-path regular expressions appear in the paper when GPT-4, given the
*global* no-transit specification, invents a filtering strategy based on
them (§4.1).  The local-synthesis experiment therefore needs them in the
IR even though the final verified configs use communities instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .value import ImmutableValue

__all__ = ["AsPath", "AsPathAccessList", "AsPathEntry", "EMPTY_AS_PATH"]


@dataclass(frozen=True)
class AsPath(ImmutableValue):
    """A sequence of AS numbers, most recent hop first.

    Canonical instances are *interned*: :meth:`of` (and every transform
    that goes through it, e.g. :meth:`prepend` or construction of a
    :class:`~repro.netmodel.route.Route`) returns one shared flyweight
    per distinct AS sequence, so the hot best-path comparisons in the
    BGP simulator degenerate to pointer checks and repeated paths share
    one tuple.  Direct construction still works and keeps plain value
    semantics — interning never changes equality, only identity.

    >>> AsPath((65001, 65002)).render()
    '65001 65002'
    """

    asns: Tuple[int, ...] = ()

    @classmethod
    def of(cls, asns: Tuple[int, ...]) -> "AsPath":
        """The canonical (interned) path for an AS tuple."""
        path = _INTERNED_PATHS.get(asns)
        if path is None:
            path = cls(asns)
            _INTERNED_PATHS[asns] = path
        return path

    def contains(self, asn: int) -> bool:
        return asn in self.asns

    def render(self) -> str:
        """Space-separated string form used by regex matching."""
        return " ".join(str(asn) for asn in self.asns)

    def __str__(self) -> str:
        return self.render()


# tuple of ASNs -> the canonical AsPath carrying it (the flyweight table
# behind AsPath.of; unbounded, but paths are tiny and the distinct-path
# population of a simulation is small).
_INTERNED_PATHS: Dict[Tuple[int, ...], AsPath] = {}

EMPTY_AS_PATH = AsPath.of(())


def _translate_cisco_regex(pattern: str) -> str:
    """Convert a Cisco AS-path regex to a Python regex over the rendering.

    Cisco uses ``_`` to mean "boundary" (start, end, or whitespace).  The
    rendering joins AS numbers with single spaces, so ``_`` becomes the
    standard ``(^|$| )`` alternation (``^``/``$`` act as positional
    assertions wherever they appear in a Python regex).
    """
    return pattern.replace("_", r"(?:^|$| )")


@dataclass(frozen=True)
class AsPathEntry(ImmutableValue):
    """One permit/deny regex line of an AS-path access list."""

    action: str
    regex: str

    def matches(self, path: AsPath) -> bool:
        rendered = path.render()
        return re.search(_translate_cisco_regex(self.regex), rendered) is not None


@dataclass
class AsPathAccessList:
    """A named ordered list of AS-path regex entries (first match wins)."""

    name: str
    entries: List[AsPathEntry] = field(default_factory=list)

    def add(self, action: str, regex: str) -> None:
        self.entries.append(AsPathEntry(action, regex))

    def permits(self, path: AsPath) -> bool:
        for entry in self.entries:
            if entry.matches(path):
                return entry.action == "permit"
        return False


def path_through(asns: Sequence[int]) -> AsPath:
    """Convenience constructor used heavily in tests."""
    return AsPath.of(tuple(asns))
