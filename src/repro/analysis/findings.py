"""Structured lint findings: the static-analysis counterpart of
:mod:`repro.campion.findings`.

A :class:`Finding` names the rule that fired, its severity, and the
*site* — router, route-map/list/session reference, clause sequence, or
rendered-text line — precisely enough that the validation harness can
match a finding against a fault-injection site, and an operator can
jump straight to the offending stanza.  A :class:`LintReport` is the
deterministic container the CLI, campaign journal, and fuzz harness
all consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["Finding", "LintReport", "Severity"]


class Severity(enum.Enum):
    """How bad a finding is.

    HIGH findings are simulator-grounded correctness risks (the
    validation harness proves clean reference configs produce zero);
    MEDIUM are likely-wrong constructs; LOW are hygiene.
    """

    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"

    @property
    def rank(self) -> int:
        """Sort key: most severe first."""
        return _SEVERITY_RANK[self]


_SEVERITY_RANK = {Severity.HIGH: 0, Severity.MEDIUM: 1, Severity.LOW: 2}


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a config site.

    ``ref`` names the artifact the finding is about (``route-map
    FILTER_COMM_OUT_R3``, ``session 10.0.3.2``, ``community-list 2``);
    ``clause_seq`` pins a route-map clause and ``line`` a rendered-text
    line, when the rule can localize that far.
    """

    rule: str
    severity: Severity
    router: str
    ref: str
    message: str
    fix_hint: str = ""
    clause_seq: Optional[int] = None
    line: Optional[int] = None

    def site(self) -> str:
        """The finding's location, most specific part last."""
        parts = [self.router]
        if self.ref:
            parts.append(self.ref)
        if self.clause_seq is not None:
            parts.append(f"seq {self.clause_seq}")
        if self.line is not None:
            parts.append(f"line {self.line}")
        return " ".join(parts)

    def describe(self) -> str:
        text = (
            f"[{self.severity.value.upper():>6}] {self.rule}: "
            f"{self.site()}: {self.message}"
        )
        if self.fix_hint:
            text += f" (fix: {self.fix_hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "router": self.router,
            "ref": self.ref,
            "clause_seq": self.clause_seq,
            "line": self.line,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }

    def sort_key(self) -> tuple:
        return (
            self.severity.rank,
            self.router,
            self.rule,
            self.ref,
            self.clause_seq if self.clause_seq is not None else -1,
            self.line if self.line is not None else -1,
            self.message,
        )


@dataclass
class LintReport:
    """Every finding one analysis pass produced, deterministically ordered.

    Ordering is severity-major then site-lexicographic — a pure function
    of the finding set, so two runs over the same configs render and
    serialize byte-identically (the fuzz corpus determinism test relies
    on this).
    """

    findings: List[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: "LintReport | List[Finding]") -> None:
        items = (
            findings.findings
            if isinstance(findings, LintReport)
            else findings
        )
        self.findings.extend(items)

    def sort(self) -> "LintReport":
        self.findings.sort(key=Finding.sort_key)
        return self

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    @property
    def high(self) -> int:
        return self.count(Severity.HIGH)

    def count(self, severity: Severity) -> int:
        return sum(1 for item in self.findings if item.severity is severity)

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for item in self.findings:
            counts[item.rule] = counts.get(item.rule, 0) + 1
        return dict(sorted(counts.items()))

    def for_router(self, router: str) -> List[Finding]:
        return [item for item in self.findings if item.router == router]

    def to_dict(self) -> dict:
        ordered = sorted(self.findings, key=Finding.sort_key)
        return {
            "findings": [item.to_dict() for item in ordered],
            "counts": {
                "total": len(self.findings),
                "high": self.count(Severity.HIGH),
                "medium": self.count(Severity.MEDIUM),
                "low": self.count(Severity.LOW),
            },
            "by_rule": self.by_rule(),
        }

    def render_text(self) -> str:
        ordered = sorted(self.findings, key=Finding.sort_key)
        lines = [item.describe() for item in ordered]
        lines.append(
            f"lint: {len(self.findings)} finding(s) — "
            f"{self.count(Severity.HIGH)} high, "
            f"{self.count(Severity.MEDIUM)} medium, "
            f"{self.count(Severity.LOW)} low"
        )
        return "\n".join(lines)
