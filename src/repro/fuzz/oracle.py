"""Run one fuzz scenario under one toggle combination and observe it.

An *observation* is a plain JSON-able structure capturing everything
the conformance contract promises is toggle-independent: after every
policy edit, the full RIB of every router (attributes, provenance
path), the local-invariant violations with their witness routes, and
the global no-transit verdict with per-role breakdowns.

The both-off baseline (:data:`BASELINE`: full re-simulation, no
memoization) is the oracle every other combination is compared
against; the incremental and memoized algorithms are only trustworthy
while they stay observationally equivalent to it.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Dict, List, Optional

from ..core import toggles
from .edits import apply_edit_op, resolve_router
from .scenarios import FuzzScenario

__all__ = [
    "BASELINE",
    "all_combos",
    "diff_observations",
    "observe",
]

#: The baseline every other combination is compared against.
BASELINE: Dict[str, Any] = {
    "incremental_simulation": False,
    "memoization": False,
}

def all_combos() -> List[Dict[str, Any]]:
    """Every combination of the registered toggles (4), in a fixed
    enumeration order starting from the both-off baseline."""
    names = list(BASELINE)
    return [
        dict(zip(names, values))
        for values in itertools.product((False, True), repeat=len(names))
    ]


def _canonical_route(route) -> list:
    return [
        str(route.prefix),
        list(route.as_path.asns),
        sorted(str(community) for community in route.communities),
        route.med,
        route.local_pref,
        str(route.next_hop),
    ]


def _canonical_ribs(simulation) -> Dict[str, Dict[str, list]]:
    return {
        name: {
            str(entry.route.prefix): (
                _canonical_route(entry.route)
                + [
                    entry.learned_from or "",
                    entry.origin_router,
                    list(entry.path),
                ]
            )
            for entry in simulation.rib(name).values()
        }
        for name in sorted(simulation._configs)
    }


def _step_observation(state, configs, topology, invariants) -> dict:
    from ..lightyear import check_global_no_transit, verify_invariants

    violations = verify_invariants(copy.deepcopy(configs), invariants)
    check = check_global_no_transit(copy.deepcopy(configs), topology)
    return {
        "ribs": _canonical_ribs(state.simulation),
        "violations": [
            [
                violation.router,
                violation.policy_name,
                violation.message,
                _canonical_route(violation.witness),
            ]
            for violation in violations
        ],
        "global": {
            "holds": check.holds,
            "detail": check.describe(),
            "roles": dict(sorted(check.role_verdicts.items())),
        },
    }


def observe(scenario: FuzzScenario, combo: Dict[str, Any]) -> dict:
    """Execute the scenario under the toggle combination.

    Raises whatever generation raises for impossible coordinates (the
    shrinker treats that as "not a valid smaller input").  All warm
    process-local state (memo caches, global-check simulation states)
    is reset on entry so observations are hermetic per combination.
    """
    from ..batfish.bgpsim import SimulationState
    from ..experiments.no_transit import materialize_network
    from ..lightyear import no_transit_invariants
    from ..lightyear.compose import reset_simulation_states
    from ..symbolic.memo import reset_caches
    from ..topology.reference import build_reference_configs

    with toggles.scoped(**combo):
        reset_caches()
        reset_simulation_states()
        network = materialize_network(
            scenario.family,
            scenario.size,
            roles=scenario.roles,
            topo=scenario.topo,
            topology_seed=scenario.topology_seed,
            place=scenario.place,
        )
        topology = network.topology
        configs = build_reference_configs(topology)
        invariants = no_transit_invariants(topology)
        state = SimulationState()
        state.converge(copy.deepcopy(configs))
        steps = [
            {"applied": None}
            | _step_observation(state, configs, topology, invariants)
        ]
        for edit in scenario.edits:
            router = resolve_router(edit.router_index, configs)
            applied = apply_edit_op(edit.op, configs, router)
            state.resimulate(copy.deepcopy(configs))
            steps.append(
                {"applied": [router, edit.op, applied]}
                | _step_observation(state, configs, topology, invariants)
            )
        reset_simulation_states()
        return {"scenario": scenario.key(), "steps": steps}


def _first_rib_divergence(base: dict, other: dict) -> str:
    for router in sorted(set(base) | set(other)):
        left, right = base.get(router), other.get(router)
        if left == right:
            continue
        left, right = left or {}, right or {}
        for prefix in sorted(set(left) | set(right)):
            if left.get(prefix) != right.get(prefix):
                return (
                    f"router {router} prefix {prefix}: "
                    f"baseline={left.get(prefix)} vs {right.get(prefix)}"
                )
    return "rib key sets differ"


def diff_observations(baseline: dict, other: dict) -> Optional[str]:
    """The first semantic divergence between two observations, or
    ``None`` when they agree."""
    base_steps, other_steps = baseline["steps"], other["steps"]
    if len(base_steps) != len(other_steps):
        return (
            f"step counts differ: {len(base_steps)} vs {len(other_steps)}"
        )
    for index, (left, right) in enumerate(zip(base_steps, other_steps)):
        if left["applied"] != right["applied"]:
            return (
                f"step {index}: edit applicability diverged "
                f"({left['applied']} vs {right['applied']})"
            )
        if left["ribs"] != right["ribs"]:
            return f"step {index}: RIBs diverged — " + _first_rib_divergence(
                left["ribs"], right["ribs"]
            )
        if left["violations"] != right["violations"]:
            return (
                f"step {index}: invariant violations diverged "
                f"(baseline {len(left['violations'])}: "
                f"{left['violations']} vs {len(right['violations'])}: "
                f"{right['violations']})"
            )
        if left["global"] != right["global"]:
            return (
                f"step {index}: global verdict diverged "
                f"({left['global']} vs {right['global']})"
            )
    return None
