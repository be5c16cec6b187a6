"""Parse diagnostics shared by both vendor parsers.

The syntax-verifier leg of COSYNTH is built on these: parsers never
raise on unrecognized input (real configs are full of statements outside
the modelled feature surface); they record :class:`ParseWarning` objects,
which a :class:`~repro.batfish.snapshot.Snapshot` keeps per file (the
counterpart of Batfish's ``parseWarning`` question).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from .device import RouterConfig

__all__ = ["ParseResult", "ParseStatus", "ParseWarning", "Diagnostics"]


class ParseStatus(enum.Enum):
    """Overall status of a parsed file, mirroring Batfish's notion."""

    PASSED = "passed"
    PARTIALLY_UNRECOGNIZED = "partially_unrecognized"
    FAILED = "failed"


@dataclass(frozen=True)
class ParseWarning:
    """One warning tied to a source line.

    ``comment`` is the machine explanation ("This syntax is unrecognized")
    and ``text`` the offending line — the two fields the humanizer splices
    into Table 1's syntax-error prompt formula.
    """

    filename: str
    line: int
    text: str
    comment: str
    parser_context: str = ""

    def render(self) -> str:
        location = f"{self.filename}:{self.line}" if self.filename else f"line {self.line}"
        return f"[{location}] {self.comment}: '{self.text}'"


@dataclass
class Diagnostics:
    """Accumulator passed through a parse run."""

    filename: str = "<config>"
    warnings: List[ParseWarning] = field(default_factory=list)

    def warn(
        self,
        line_number: int,
        text: str,
        comment: str,
        parser_context: str = "",
    ) -> ParseWarning:
        warning = ParseWarning(
            filename=self.filename,
            line=line_number,
            text=text.strip(),
            comment=comment,
            parser_context=parser_context,
        )
        self.warnings.append(warning)
        return warning

    @property
    def status(self) -> ParseStatus:
        if not self.warnings:
            return ParseStatus.PASSED
        return ParseStatus.PARTIALLY_UNRECOGNIZED

    def clear(self) -> None:
        self.warnings.clear()


@dataclass
class ParseResult:
    """Outcome of a parse in either dialect: the IR plus diagnostics."""

    config: RouterConfig
    diagnostics: Diagnostics

    @property
    def warnings(self) -> List[ParseWarning]:
        return self.diagnostics.warnings
