"""Prefix lists with ``ge``/``le`` length modifiers.

The Cisco ``ge 24`` prefix-list modifier is one of the paper's star
witnesses (§3.2, "BGP prefix list issues"): it has no direct Junos
equivalent, GPT-4 tends to drop it, and the invalid
``1.2.3.0/24-32`` syntax it invents while fixing the drop is Table 1's
syntax-error example.  The IR therefore models length ranges precisely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .ip import Prefix, PrefixRange
from .value import ImmutableValue

__all__ = ["PrefixList", "PrefixListEntry"]


@dataclass(frozen=True)
class PrefixListEntry(ImmutableValue):
    """One sequenced permit/deny line of a prefix list."""

    seq: int
    action: str
    range: PrefixRange

    def matches(self, prefix: Prefix) -> bool:
        return self.range.matches(prefix)

    def render_cisco(self, list_name: str) -> str:
        """Render back to IOS syntax (used by the config generator)."""
        parts = [
            f"ip prefix-list {list_name} seq {self.seq}",
            self.action,
            str(self.range.prefix),
        ]
        exact = self.range.is_exact()
        if not exact:
            if self.range.low != self.range.prefix.length:
                parts.append(f"ge {self.range.low}")
            if self.range.high != 32:
                parts.append(f"le {self.range.high}")
            elif self.range.low == self.range.prefix.length:
                # ``le 32`` with default low still needs rendering.
                parts.append("le 32")
        return " ".join(parts)


@dataclass
class PrefixList:
    """A named, ordered prefix list (first match wins, default deny)."""

    name: str
    entries: List[PrefixListEntry] = field(default_factory=list)

    def add(
        self,
        action: str,
        prefix_range: PrefixRange,
        seq: Optional[int] = None,
    ) -> PrefixListEntry:
        """Append an entry, auto-sequencing by fives like IOS does."""
        if seq is None:
            seq = (self.entries[-1].seq + 5) if self.entries else 5
        entry = PrefixListEntry(seq, action, prefix_range)
        self.entries.append(entry)
        self.entries.sort(key=lambda item: item.seq)
        return entry

    def permits(self, prefix: Prefix) -> bool:
        """Evaluate the list against a concrete prefix."""
        for entry in self.entries:
            if entry.matches(prefix):
                return entry.action == "permit"
        return False

    def permitted_ranges(self) -> List[PrefixRange]:
        """The space of prefixes this list permits, as disjoint ranges.

        Entries are processed in order; a permit entry contributes the
        part of its range not shadowed by earlier deny entries.
        """
        permitted: List[PrefixRange] = []
        denied: List[PrefixRange] = []
        for entry in self.entries:
            if entry.action == "permit":
                remaining = [entry.range]
                for deny_range in denied:
                    remaining = [
                        piece
                        for item in remaining
                        for piece in item.subtract(deny_range)
                    ]
                permitted.extend(remaining)
            else:
                denied.append(entry.range)
        return permitted
