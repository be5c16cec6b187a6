"""Simulator-grounded validation of the analyzer: precision + recall.

Static-analysis rules are cheap to write and easy to get subtly wrong;
this harness holds every rule to the same ground truth the rest of the
repo trusts — the reference configs and fault catalog the simulator is
validated against:

* **Precision**: across all nine canonical family cells (the same grid
  the route-model differential suite runs), the *clean* reference
  configs must produce **zero HIGH findings**.  Any HIGH finding on a
  config the simulator proves correct is a false positive by
  construction.

* **Recall**: every fault in the :mod:`repro.llm.synthesis_faults`
  catalog (including ``multihome_untagged_home``) is injected at its
  designated router via the same :class:`~repro.llm.faults.DraftState`
  machinery the synthesis loop uses; the analyzer must then emit at
  least one finding **at the injection site**.  A fault whose transform
  is an identity on a given cell (e.g. merging a single-stanza egress
  map) is recorded as not applicable rather than silently passing.

The per-rule table this produces is checked in under ``reports/`` and
gated in CI: clean HIGH findings, sub-100% recall, or any byte of drift
from the checked-in report fail the build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cisco.generator import generate_cisco
from ..llm.faults import FaultTargetError
from ..llm.synthesis_faults import fault_designations, synthesis_fault_catalog
from ..topology.families import generate_network
from ..topology.reference import build_reference_configs
from .analyzer import RULES, analyze_configs
from .findings import Severity

__all__ = [
    "CELLS",
    "EXPECTED_RULES",
    "FaultOutcome",
    "ValidationReport",
    "run_validation",
    "validate_cell",
]

#: The nine canonical family cells — same grid as the route-model
#: differential suite, so "clean" here means "the simulator verifies
#: the global invariant on these configs".
CELLS: List[Tuple[str, int, dict]] = [
    ("star", 7, {}),
    ("chain", 6, {}),
    ("ring", 6, {}),
    ("mesh", 6, {}),
    ("dumbbell", 6, {}),
    ("random", 8, {"seed": 1, "roles": "c2i2h2"}),
    ("random", 8, {"seed": 2, "roles": "c2i2h1", "place": "degree"}),
    ("waxman", 8, {"seed": 1, "roles": "c2i2h2"}),
    ("waxman", 8, {"seed": 3, "roles": "c1i3h1p1", "place": "degree"}),
]

#: fault key -> the rule(s) expected to localize it.  Site-matching
#: findings outside this set still count toward overall recall (any
#: finding at the injection site detects the fault), but per-rule
#: recall is attributed through this map.
EXPECTED_RULES: Dict[str, Tuple[str, ...]] = {
    "cli_keywords": ("cli-keywords",),
    "stray_ip_routing": ("stray-ip-routing",),
    "misplaced_neighbor_command": ("misplaced-neighbor",),
    "inline_match_community": ("inline-community-match",),
    "non_additive_set_community": ("non-additive-community",),
    "and_or_semantics": ("transit-leak",),
    "egress_permits_tagged": ("transit-leak",),
    "missing_ingress_tag": ("untagged-ingress",),
    "multihome_untagged_home": ("untagged-ingress",),
    "wrong_interface_ip": ("ifc-ip-mismatch",),
    "wrong_local_as": ("local-as-mismatch",),
    "wrong_router_id": ("router-id-mismatch",),
    "missing_neighbor": ("missing-neighbor",),
    "extra_neighbor": ("extra-neighbor",),
    "missing_network": ("missing-network",),
    "extra_network": ("extra-network",),
}


def cell_id(family: str, size: int, extra: dict) -> str:
    return f"{family}-{size}" + "".join(f"-{value}" for value in extra.values())


@dataclass(frozen=True)
class FaultOutcome:
    """One (cell, fault) injection and what the analyzer saw."""

    cell: str
    fault: str
    router: str
    applicable: bool
    detected: bool
    rules: Tuple[str, ...] = ()  # rules that fired at the injection site
    reason: str = ""  # why not applicable

    def to_dict(self) -> dict:
        return {
            "cell": self.cell,
            "fault": self.fault,
            "router": self.router,
            "applicable": self.applicable,
            "detected": self.detected,
            "rules": list(self.rules),
            "reason": self.reason,
        }


@dataclass
class RuleStats:
    """Per-rule precision/recall over the whole harness."""

    rule: str
    severity: str
    clean_findings: int = 0  # false positives by construction
    site_findings: int = 0  # true positives: fired at an injection site
    expected: int = 0  # applicable faults this rule should localize
    localized: int = 0  # of those, how many it actually localized

    @property
    def precision(self) -> Optional[float]:
        fired = self.site_findings + self.clean_findings
        return self.site_findings / fired if fired else None

    @property
    def recall(self) -> Optional[float]:
        return self.localized / self.expected if self.expected else None

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "clean_findings": self.clean_findings,
            "site_findings": self.site_findings,
            "expected": self.expected,
            "localized": self.localized,
            "precision": self.precision,
            "recall": self.recall,
        }


@dataclass
class ValidationReport:
    """Everything the harness measured, with the CI gates as properties."""

    cells: List[str] = field(default_factory=list)
    clean_findings: int = 0
    clean_high: int = 0
    clean_by_rule: Dict[str, int] = field(default_factory=dict)
    outcomes: List[FaultOutcome] = field(default_factory=list)

    @property
    def applicable(self) -> int:
        return sum(1 for item in self.outcomes if item.applicable)

    @property
    def detected(self) -> int:
        return sum(
            1 for item in self.outcomes if item.applicable and item.detected
        )

    @property
    def recall(self) -> Optional[float]:
        return self.detected / self.applicable if self.applicable else None

    @property
    def missed(self) -> List[FaultOutcome]:
        return [
            item
            for item in self.outcomes
            if item.applicable and not item.detected
        ]

    @property
    def ok(self) -> bool:
        """The CI gate: no clean HIGH findings, full catalog recall."""
        return self.clean_high == 0 and self.recall == 1.0

    def per_rule(self) -> List[RuleStats]:
        stats = {
            rule: RuleStats(rule=rule, severity=severity.value)
            for rule, (severity, _description) in RULES.items()
        }
        for rule, count in self.clean_by_rule.items():
            stats.setdefault(
                rule, RuleStats(rule=rule, severity="?")
            ).clean_findings += count
        for outcome in self.outcomes:
            if not outcome.applicable:
                continue
            expected = EXPECTED_RULES.get(outcome.fault, ())
            for rule in outcome.rules:
                entry = stats.setdefault(
                    rule, RuleStats(rule=rule, severity="?")
                )
                entry.site_findings += 1
            for rule in expected:
                entry = stats.setdefault(
                    rule, RuleStats(rule=rule, severity="?")
                )
                entry.expected += 1
                if rule in outcome.rules:
                    entry.localized += 1
        return [stats[rule] for rule in sorted(stats)]

    def to_dict(self) -> dict:
        return {
            "cells": self.cells,
            "clean": {
                "findings": self.clean_findings,
                "high": self.clean_high,
                "by_rule": dict(sorted(self.clean_by_rule.items())),
            },
            "faults": {
                "total": len(self.outcomes),
                "applicable": self.applicable,
                "detected": self.detected,
                "recall": self.recall,
            },
            "rules": [item.to_dict() for item in self.per_rule()],
            "outcomes": [item.to_dict() for item in self.outcomes],
            "ok": self.ok,
        }

    def render_text(self) -> str:
        lines = [
            f"lint validation: {len(self.cells)} cell(s), "
            f"{len(self.outcomes)} fault injection(s)"
        ]
        lines.append(
            f"  clean: {self.clean_findings} finding(s), "
            f"{self.clean_high} HIGH"
        )
        recall = self.recall
        rendered = "n/a" if recall is None else f"{100 * recall:.1f}%"
        lines.append(
            f"  faults: {self.detected}/{self.applicable} applicable "
            f"detected at site (recall {rendered})"
        )
        for item in self.missed:
            lines.append(
                f"    MISSED {item.fault} at {item.router} ({item.cell})"
            )
        lines.append(
            f"  {'rule':<24} {'sev':<6} {'clean':>5} {'site':>5} "
            f"{'recall':>7} {'precision':>9}"
        )
        for stats in self.per_rule():
            if not (
                stats.clean_findings or stats.site_findings or stats.expected
            ):
                continue
            recall_text = (
                "    -" if stats.recall is None else f"{stats.recall:5.2f}"
            )
            precision_text = (
                "        -"
                if stats.precision is None
                else f"{stats.precision:9.2f}"
            )
            lines.append(
                f"  {stats.rule:<24} {stats.severity:<6} "
                f"{stats.clean_findings:>5} {stats.site_findings:>5} "
                f"{recall_text:>7} {precision_text}"
            )
        lines.append(f"  gate: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def validate_cell(
    family: str, size: int, extra: Optional[dict] = None
) -> Tuple[int, int, Dict[str, int], List[FaultOutcome]]:
    """Run the harness over one cell.

    Returns ``(clean_findings, clean_high, clean_by_rule, outcomes)``.
    """
    from ..llm.faults import DraftState

    extra = extra or {}
    label = cell_id(family, size, extra)
    topology = generate_network(family, size, **extra).topology
    configs = build_reference_configs(topology)
    clean_texts = {
        name: generate_cisco(config) for name, config in configs.items()
    }
    clean = analyze_configs(configs, topology=topology, texts=clean_texts)
    catalog = synthesis_fault_catalog(topology)
    designations = fault_designations(topology)
    outcomes: List[FaultOutcome] = []
    for key in sorted(designations):
        fault = catalog.get(key)
        router = designations[key]
        if fault is None or router not in configs:
            continue
        state = DraftState(configs[router], generate_cisco)
        state.inject(fault)
        try:
            faulted = state.current_config()
            text = state.render()
        except FaultTargetError as exc:
            outcomes.append(
                FaultOutcome(
                    cell=label,
                    fault=key,
                    router=router,
                    applicable=False,
                    detected=False,
                    reason=f"no target: {exc}",
                )
            )
            continue
        if text == clean_texts[router]:
            # The transform was an identity on this cell (e.g. merging
            # the deny stanzas of a single-stanza egress map): there is
            # nothing for any analysis to find.
            outcomes.append(
                FaultOutcome(
                    cell=label,
                    fault=key,
                    router=router,
                    applicable=False,
                    detected=False,
                    reason="identity transform on this cell",
                )
            )
            continue
        mutated = dict(configs)
        mutated[router] = faulted
        report = analyze_configs(
            mutated, topology=topology, texts={router: text}
        )
        site = report.for_router(router)
        outcomes.append(
            FaultOutcome(
                cell=label,
                fault=key,
                router=router,
                applicable=True,
                detected=bool(site),
                rules=tuple(sorted({item.rule for item in site})),
            )
        )
    by_rule = clean.by_rule()
    return len(clean), clean.count(Severity.HIGH), by_rule, outcomes


def run_validation(
    cells: Optional[List[Tuple[str, int, dict]]] = None,
) -> ValidationReport:
    """Run the full harness (all nine cells unless narrowed)."""
    report = ValidationReport()
    for family, size, extra in cells if cells is not None else CELLS:
        report.cells.append(cell_id(family, size, extra))
        findings, high, by_rule, outcomes = validate_cell(family, size, extra)
        report.clean_findings += findings
        report.clean_high += high
        for rule, count in by_rule.items():
            report.clean_by_rule[rule] = (
                report.clean_by_rule.get(rule, 0) + count
            )
        report.outcomes.extend(outcomes)
    return report
