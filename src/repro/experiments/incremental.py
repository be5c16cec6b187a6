"""Incremental policy addition (the paper's §6 open question).

"Can GPT-4 add a new policy incrementally without interfering with
existing verified policy?"  This extension experiment answers it with
the VPP machinery:

* start from the *verified* no-transit star;
* ask the model to add a traffic-engineering policy on the hub —
  prepend AS 1 twice on exports toward one spoke (a depref), expressed
  as a new :class:`EgressPrependInvariant`;
* the simulated model commits the feared interference: it implements
  the prepend by rewriting the egress filter map, silently dropping the
  community-filter clauses that the no-transit policy depends on;
* COSYNTH re-verifies the *old* invariants alongside the new one, so
  the interference is caught as an egress-filter violation and repaired
  through the normal loop.

The measured answer: yes — provided the old invariants are re-checked;
the interference is invisible to the new invariant alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..batfish.bgpsim import ResimStats
from ..cisco import generate_cisco, parse_cisco
from ..core.humanizer import Humanizer, finding_from_warning
from ..core.leverage import PromptKind, PromptLog
from ..errors import ErrorCategory, Finding
from ..lightyear import (
    EgressPrependInvariant,
    IncrementalGlobalChecker,
    verify_invariants,
)
from ..lightyear.compose import GlobalCheckResult, check_global_no_transit
from ..llm import BehaviorProfile, SimulatedGPT4
from ..llm.faults import Fault
from ..netmodel.ip import Ipv4Address
from ..netmodel.routing_policy import Action, RouteMap, RouteMapClause, SetAsPathPrepend
from ..topology import StarNetwork, generate_star_network
from ..topology.context import topology_context
from ..topology.reference import build_reference_configs, egress_map_name

__all__ = ["IncrementalResult", "run_incremental_policy_experiment"]

TARGET_SPOKE = 4  # the depref applies to exports toward R4
PREPEND_ASN = 1
PREPEND_COUNT = 2


def _goal_hub_config(star: StarNetwork):
    """The correct end state: reference hub + prepend on R4's egress."""
    configs = build_reference_configs(star.topology)
    hub = configs["R1"]
    egress = hub.route_maps[egress_map_name(TARGET_SPOKE)]
    for clause in egress.clauses:
        if clause.action is Action.PERMIT:
            clause.sets.append(SetAsPathPrepend(PREPEND_ASN, PREPEND_COUNT))
    return hub


def _interference_fault() -> Fault:
    """The model rewrites the filter map to add the prepend, dropping the
    deny clauses — exactly the feared interference."""
    map_name = egress_map_name(TARGET_SPOKE)

    def transform(config) -> None:
        replacement = RouteMap(map_name)
        clause = RouteMapClause(seq=10, action=Action.PERMIT)
        clause.sets.append(SetAsPathPrepend(PREPEND_ASN, PREPEND_COUNT))
        replacement.add_clause(clause)
        config.route_maps[map_name] = replacement

    return Fault(
        key="interference_drops_filter",
        label="New policy rewrote the verified egress filter",
        category=ErrorCategory.SEMANTIC,
        fixable_by_generated_prompt=True,
        prompt_patterns=(rf"{map_name} permits routes",),
        ir_transform=transform,
    )


def _undercounted_prepend_fault() -> Fault:
    """The model prepends once instead of twice (new-invariant bug)."""
    map_name = egress_map_name(TARGET_SPOKE)

    def transform(config) -> None:
        route_map = config.route_maps.get(map_name)
        if route_map is None:
            return
        for clause in route_map.clauses:
            clause.sets = [
                SetAsPathPrepend(action.asn, 1)
                if isinstance(action, SetAsPathPrepend)
                else action
                for action in clause.sets
            ]

    return Fault(
        key="undercounted_prepend",
        label="Prepend applied fewer times than required",
        category=ErrorCategory.SEMANTIC,
        fixable_by_generated_prompt=True,
        prompt_patterns=(r"must be prepended",),
        ir_transform=transform,
    )


@dataclass
class IncrementalResult:
    """Outcome of the incremental-policy run."""

    verified: bool
    interference_caught: bool
    prompt_log: PromptLog
    findings: List[Finding] = field(default_factory=list)
    global_check: Optional[GlobalCheckResult] = None
    global_sim: Optional[ResimStats] = None

    def render(self) -> str:
        text = (
            f"incremental policy addition: interference "
            f"{'caught and repaired' if self.interference_caught else 'NOT caught'}; "
            f"{self.prompt_log.automated} automated prompt(s); "
            f"verified={self.verified}"
        )
        if self.global_check is not None:
            text += (
                f"; global no-transit "
                f"{'holds' if self.global_check.holds else 'BROKEN'}"
            )
            if self.global_sim is not None and self.global_sim.incremental:
                text += (
                    f" (re-simulated incrementally: "
                    f"{self.global_sim.reused_entries} RIB entries reused)"
                )
        return text


def run_incremental_policy_experiment(
    router_count: int = 7,
    seed: int = 0,
    profile: Optional[BehaviorProfile] = None,
    recheck_old_invariants: bool = True,
    max_prompts: int = 20,
) -> IncrementalResult:
    """Run the incremental-addition loop on the hub.

    ``recheck_old_invariants=False`` shows the negative control: without
    re-verification the interference ships silently (the run "verifies"
    against the new invariant only, yet no-transit is broken).
    """
    star = generate_star_network(router_count)
    goal = _goal_hub_config(star)
    faults = {
        fault.key: fault
        for fault in (_interference_fault(), _undercounted_prepend_fault())
    }
    model = SimulatedGPT4(
        catalog=faults,
        reference=goal,
        renderer=generate_cisco,
        initial_fault_keys=list(faults),
        seed=seed,
        profile=profile or BehaviorProfile.always_fix(),
    )
    old_invariants = topology_context(star.topology).invariants_of["R1"]
    hub_neighbor_ip = Ipv4Address.parse(f"{TARGET_SPOKE - 1}.0.0.2")
    new_invariant = EgressPrependInvariant(
        router="R1",
        neighbor_ip=hub_neighbor_ip,
        asn=PREPEND_ASN,
        count=PREPEND_COUNT,
    )
    invariants = list(old_invariants) if recheck_old_invariants else []
    invariants.append(new_invariant)

    humanizer = Humanizer()
    log = PromptLog()
    findings: List[Finding] = []
    interference_caught = False
    task = (
        "Starting from the verified R1 configuration, add a new policy: "
        f"prepend AS {PREPEND_ASN} {PREPEND_COUNT} times on all routes "
        f"exported to neighbor {hub_neighbor_ip} (R{TARGET_SPOKE}). Do not "
        "change any other behaviour."
    )
    log.add(PromptKind.INITIAL, "task", task, "R1")
    text = model.send(task)
    while log.automated < max_prompts:
        finding = _next_finding(text, invariants)
        if finding is None:
            break
        findings.append(finding)
        if "permits routes that have the community" in finding.message:
            interference_caught = True
        prompt = humanizer.humanize(finding)
        log.add(PromptKind.AUTOMATED, finding.category.value, prompt, "R1")
        text = model.send(prompt)
    verified = _next_finding(text, invariants) is None
    # Even in the no-recheck control, report whether no-transit survived.
    config = parse_cisco(text, filename="R1.cfg", default_hostname="R1").config
    surviving_violations = verify_invariants({"R1": config}, old_invariants)
    if not recheck_old_invariants and surviving_violations:
        verified = False  # shipped broken: the point of the control
    # The global check re-simulates incrementally: the verified star is
    # converged once, then only what the hub's edit changed is
    # re-converged — exactly the delta the incremental-addition story
    # is about (one router changed, the rest of the network untouched).
    checker = IncrementalGlobalChecker()
    base_configs = build_reference_configs(star.topology)
    checker.simulate(base_configs)
    final_configs = dict(base_configs)
    final_configs["R1"] = config
    global_check = check_global_no_transit(
        final_configs, star.topology, checker=checker
    )
    return IncrementalResult(
        verified=verified and not surviving_violations,
        interference_caught=interference_caught,
        prompt_log=log,
        findings=findings,
        global_check=global_check,
        global_sim=checker.last_stats,
    )


def _next_finding(text: str, invariants: List[object]) -> Optional[Finding]:
    parsed = parse_cisco(text, filename="R1.cfg", default_hostname="R1")
    if parsed.warnings:
        return finding_from_warning(parsed.warnings[0], router="R1")
    violations = verify_invariants({"R1": parsed.config}, invariants)
    if violations:
        return Finding(
            category=ErrorCategory.SEMANTIC,
            message=violations[0].message,
            router="R1",
            detail=violations[0],
        )
    return None
