"""Line tokenization for Cisco IOS configurations.

IOS configs are line-oriented with indentation indicating block
membership.  The lexer turns raw text into :class:`ConfigLine` records
(number, indent, tokens) and filters comments, leaving block structure
to the parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["ConfigLine", "tokenize"]


@dataclass(frozen=True)
class ConfigLine:
    """One meaningful line of an IOS config.

    ``tokens`` keep their source case (names are case-sensitive);
    ``folded`` holds the same tokens lower-cased once, for keyword
    compares (IOS keywords are case-insensitive).
    """

    number: int
    indent: int
    text: str
    tokens: Tuple[str, ...]
    folded: Tuple[str, ...]

    @property
    def keyword(self) -> str:
        """The first token, lower-cased."""
        return self.folded[0] if self.folded else ""

    def starts_with(self, *words: str) -> bool:
        """True if the line's leading tokens equal the lower-case ``words``."""
        return self.folded[: len(words)] == words


def tokenize(text: str) -> List[ConfigLine]:
    """Split config text into :class:`ConfigLine` records.

    Blank lines, ``!`` separators, and ``#`` comments are dropped.
    """
    lines: List[ConfigLine] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("!") or stripped.startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        tokens = tuple(stripped.split())
        lines.append(
            ConfigLine(
                number=number,
                indent=indent,
                text=stripped,
                tokens=tokens,
                folded=tuple(map(str.lower, tokens)),
            )
        )
    return lines
