"""Compositional argument: local invariants imply the global policy.

§4.1 closes the loop: "we simulate the entire BGP communication using
Batfish as a final step, in order to ensure that the global policy is
satisfied, though the proof technique of Lightyear could instead be used
to ensure that the local policies imply the global one."  This module
provides both: the structural composition check (every ISP pair is
covered by a tag/filter pair and no policy strips tags) and the
simulation-based global check.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from ..batfish.bgpsim import (
    BgpSimulation,
    ResimStats,
    SimulationState,
    incremental_simulation_enabled,
)
from ..netmodel.device import RouterConfig
from ..netmodel.ip import Prefix
from ..netmodel.routing_policy import (
    Action,
    PolicyEvaluationError,
    SetCommunity,
)
from ..obs import counter
from ..topology.context import TopologyContext, topology_context
from ..topology.model import Topology
from ..topology.roles import RoleKind
from .invariants import EgressFilterInvariant, IngressTagInvariant

__all__ = [
    "CompositionResult",
    "GlobalCheckResult",
    "IncrementalGlobalChecker",
    "check_composition",
    "check_global_no_transit",
    "reset_simulation_states",
]


@dataclass
class CompositionResult:
    """Outcome of the structural Lightyear-style composition check."""

    covered_pairs: List[Tuple[str, str]] = field(default_factory=list)
    uncovered_pairs: List[Tuple[str, str]] = field(default_factory=list)
    tag_stripping_policies: List[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.uncovered_pairs and not self.tag_stripping_policies

    def describe(self) -> str:
        if self.holds:
            return (
                f"local invariants cover all {len(self.covered_pairs)} "
                f"ISP pairs and no policy strips ingress tags: the global "
                f"no-transit policy follows"
            )
        problems = []
        if self.uncovered_pairs:
            rendered = ", ".join(f"{a}->{b}" for a, b in self.uncovered_pairs)
            problems.append(f"uncovered ISP pairs: {rendered}")
        if self.tag_stripping_policies:
            problems.append(
                "policies replace communities non-additively: "
                + ", ".join(self.tag_stripping_policies)
            )
        return "; ".join(problems)


def check_composition(
    invariants: List[object],
    configs: Dict[str, RouterConfig],
    topology: Topology,
) -> CompositionResult:
    """Verify the invariant *set* suffices for global no-transit.

    The argument needs (1) every ordered pair of attachments belonging
    to *different* ISPs to have an ingress tag at the source and an
    egress filter at the destination forbidding the source's tag, and
    (2) no route-map between the tagging point and the filtering point
    to replace communities non-additively (which would strip the tag
    and void the argument).  Two homes of a multi-homed ISP are the
    same party, so their mutual pairs need no coverage — the role
    assignment supplies that grouping (single-homed attachments and the
    star's spoke addresses each form their own group, preserving the
    classic every-pair reading).
    """
    result = CompositionResult()
    groups = {
        str(attachment.peer.peer_ip): f"isp-{attachment.index}"
        for attachment in topology_context(topology).roles.transit_forbidden()
    }
    tags = {
        str(invariant.neighbor_ip): invariant.community
        for invariant in invariants
        if isinstance(invariant, IngressTagInvariant)
    }
    filters = {
        str(invariant.neighbor_ip): invariant.forbidden
        for invariant in invariants
        if isinstance(invariant, EgressFilterInvariant)
    }
    addresses = sorted(set(tags) | set(filters))
    for source in addresses:
        for destination in addresses:
            if source == destination:
                continue
            if groups.get(source, source) == groups.get(
                destination, destination
            ):
                continue  # same ISP's homes: transit between them is fine
            tag = tags.get(source)
            forbidden = filters.get(destination, frozenset())
            if tag is not None and tag in forbidden:
                result.covered_pairs.append((source, destination))
            else:
                result.uncovered_pairs.append((source, destination))
    for hostname, config in sorted(configs.items()):
        for route_map in config.route_maps.values():
            for clause in route_map.clauses:
                for set_action in clause.sets:
                    if isinstance(set_action, SetCommunity) and not set_action.additive:
                        result.tag_stripping_policies.append(
                            f"{hostname}:{route_map.name}"
                        )
    return result


@dataclass
class GlobalCheckResult:
    """Outcome of the simulation-based global no-transit check.

    ``role_verdicts`` maps each role label (``CUSTOMER``, ``ISP_3``,
    ``PEER_7``, ...) to whether *that role's* obligations held — the
    per-role reading of the same violations, populated by the
    role-assigned (border) checker.  ``sim_stats`` says how the
    simulation behind the verdict converged; it takes no part in
    equality, so an incremental verdict equals its full reference.
    """

    transit_violations: List[str] = field(default_factory=list)
    customer_unreachable: List[str] = field(default_factory=list)
    isp_prefixes_missing_at_hub: List[str] = field(default_factory=list)
    role_verdicts: Dict[str, bool] = field(default_factory=dict)
    sim_stats: Optional[ResimStats] = field(default=None, compare=False)

    @property
    def holds(self) -> bool:
        return not (
            self.transit_violations
            or self.customer_unreachable
            or self.isp_prefixes_missing_at_hub
        )

    def describe(self) -> str:
        if self.holds:
            return "BGP simulation confirms the global no-transit policy"
        return "; ".join(
            self.transit_violations
            + self.customer_unreachable
            + self.isp_prefixes_missing_at_hub
        )

    def describe_roles(self) -> str:
        """One line per role: ``CUSTOMER ok, ISP_2 ok, ISP_3 VIOLATED``."""
        if not self.role_verdicts:
            return "no role verdicts (hub-policy topology)"
        return ", ".join(
            f"{role} {'ok' if verdict else 'VIOLATED'}"
            for role, verdict in sorted(self.role_verdicts.items())
        )


# -- incremental global simulation ---------------------------------------------


class IncrementalGlobalChecker:
    """A warm :class:`SimulationState` owned by one repeated-check loop,
    so each global check re-propagates only what changed since the
    previous one (the state derives the delta from the configs)."""

    def __init__(self) -> None:
        self._state = SimulationState()

    @property
    def last_stats(self) -> Optional[ResimStats]:
        return self._state.last_stats

    def simulate(self, configs: Dict[str, RouterConfig]) -> BgpSimulation:
        """Converge ``configs``, reusing warm state where valid."""
        self._state.resimulate(configs)
        return self._state.simulation


_CHECKER_LIMIT = 8

# topology key -> warm checker; process-local, like the symbolic memo
# caches, so campaign workers stay fork-safe with zero coordination.
_CHECKERS: "OrderedDict[Tuple, IncrementalGlobalChecker]" = OrderedDict()


def reset_simulation_states() -> None:
    """Drop every warm simulation state (tests and benchmarks)."""
    _CHECKERS.clear()


def _global_simulation(
    configs: Dict[str, RouterConfig],
    context: TopologyContext,
    checker: Optional[IncrementalGlobalChecker],
) -> Tuple[BgpSimulation, Optional[ResimStats]]:
    """The converged simulation behind one global check, and how it
    converged."""
    if checker is None:
        if not incremental_simulation_enabled():
            state = SimulationState(configs)
            return state.simulation, state.last_stats
        key = context.key
        checker = _CHECKERS.get(key)
        if checker is None:
            checker = IncrementalGlobalChecker()
            _CHECKERS[key] = checker
            while len(_CHECKERS) > _CHECKER_LIMIT:
                _CHECKERS.popitem(last=False)
        else:
            _CHECKERS.move_to_end(key)
    simulation = checker.simulate(configs)
    return simulation, checker.last_stats


def check_global_no_transit(
    configs: Dict[str, RouterConfig],
    topology: Topology,
    checker: Optional[IncrementalGlobalChecker] = None,
    changed_routers: "Optional[Set[str]]" = None,
) -> GlobalCheckResult:
    """Simulate BGP and check the global property directly (§4.1's final
    step), on any topology family.

    Hub-shaped (star) topologies use the paper's RIB-based reading: no
    spoke holds another ISP's route, every spoke holds the customer
    route, and the hub holds every ISP route.  Role-assigned (border)
    topologies use the export-based reading over the role assignment:
    no attachment would advertise another ISP's prefix to its own
    external peer, every provider would receive every customer prefix,
    and every customer would receive every provider prefix — with the
    per-role verdicts recorded on the result.

    The simulation re-converges incrementally where possible: pass a
    ``checker`` owned by a repeated-simulation loop, or let the
    process-local registry keep a warm state per topology.  Either way
    the delta since the previous check is derived from the configs
    themselves.  ``changed_routers`` is accepted for older callers and
    ignored: no caller-named delta can steer the simulation.
    """
    context = topology_context(topology)
    simulation, sim_stats = _global_simulation(configs, context, checker)
    if not context.hub_star:
        return _check_global_border(configs, context, simulation, sim_stats)
    result = GlobalCheckResult(sim_stats=sim_stats)
    hub = topology.router("R1")
    customer_prefixes = list(hub.networks)
    spoke_names = [name for name in topology.router_names() if name != "R1"]
    spoke_prefixes: Dict[str, List[Prefix]] = {
        name: list(topology.router(name).networks) for name in spoke_names
    }
    for receiver in spoke_names:
        for sender in spoke_names:
            if sender == receiver:
                continue
            for prefix in spoke_prefixes[sender]:
                if simulation.has_route(receiver, prefix):
                    result.transit_violations.append(
                        f"{receiver} has a route to {sender}'s prefix {prefix}: "
                        f"transit through the customer network"
                    )
        for prefix in customer_prefixes:
            if not simulation.has_route(receiver, prefix):
                result.customer_unreachable.append(
                    f"{receiver} has no route to the customer prefix {prefix}"
                )
    for sender in spoke_names:
        for prefix in spoke_prefixes[sender]:
            if not simulation.has_route("R1", prefix):
                result.isp_prefixes_missing_at_hub.append(
                    f"R1 has no route to {sender}'s prefix {prefix}"
                )
    return result


# Export route-map evaluations the border verdict performed.
_EXPORT_EVALUATIONS = counter("verdict.export_evaluations")


def _exported_prefixes(
    simulation: BgpSimulation,
    router: str,
    config: RouterConfig,
    peer_ip,
    wanted: AbstractSet[Prefix],
) -> "set[Prefix]":
    """Which of the ``wanted`` prefixes a router would advertise to one
    external peer, applying the export route-map attached to that
    neighbor (if any), as the simulation already bound it.

    The result is exact only over ``wanted``: each wanted prefix is
    looked up in the router's RIB and only an installed entry is run
    through the export map, so a prefix outside ``wanted`` is never in
    the result, exported or not.  A route whose evaluation raises
    :class:`PolicyEvaluationError` counts as not exported.  An
    undeclared neighbor exports nothing — the session would never
    establish, which the reachability checks then surface.
    """
    if config.bgp is None or config.bgp.get_neighbor(peer_ip) is None:
        return set()
    find_clause = simulation.export_clause_finder(router, peer_ip)
    exported = set()
    for prefix in wanted:
        entry = simulation.rib_entry(router, prefix)
        if entry is None:
            continue
        route = entry.route
        if find_clause is not None:
            _EXPORT_EVALUATIONS.inc()
            try:
                clause = find_clause(route)
            except PolicyEvaluationError:
                continue
            if clause is None or clause.action is Action.DENY:
                continue
        exported.add(route.prefix)
    return exported


def _check_global_border(
    configs: Dict[str, RouterConfig],
    context: TopologyContext,
    simulation: BgpSimulation,
    sim_stats: Optional[ResimStats],
) -> GlobalCheckResult:
    """Export-based global check for role-assigned (border) topologies.

    Obligations follow the role assignment rather than a fixed single
    ISP pair:

    * no attachment may export another ISP's prefix to its own external
      peer (a multi-homed ISP's *own* prefixes may legitimately exit
      through its other homes);
    * every provider attachment must export every customer prefix
      (peers carry no reachability obligation);
    * every customer attachment must receive every provider prefix.

    Each violation also flips the verdicts of the roles it implicates,
    producing the per-role reading in ``role_verdicts``.

    The verdict only asks whether role prefixes (transit-forbidden
    attachment prefixes and customer prefixes) are exported, so each
    export set is computed over their union alone: it is exact over
    those prefixes and says nothing about any other RIB entry.
    """
    roles = context.roles
    result = GlobalCheckResult(
        role_verdicts={name: True for name in roles.role_names()},
        sim_stats=sim_stats,
    )

    def blame(*role_names: str) -> None:
        for name in role_names:
            result.role_verdicts[name] = False

    for attachment in roles.transit_forbidden():
        config = configs.get(attachment.router)
        if config is None:
            result.customer_unreachable.append(
                f"{attachment.router} has no configuration, so "
                f"{attachment.role_name} is cut off"
            )
            blame(attachment.role_name)
            continue
        exported = _exported_prefixes(
            simulation, attachment.router, config, attachment.peer.peer_ip,
            context.wanted,
        )
        for other_index, named_prefixes in sorted(context.prefixes_of.items()):
            if other_index == attachment.index:
                continue
            for other_name, prefix in named_prefixes:
                if prefix in exported:
                    result.transit_violations.append(
                        f"{attachment.router} would advertise "
                        f"{other_name}'s prefix {prefix} to "
                        f"{attachment.role_name}: transit through the "
                        f"customer network"
                    )
                    blame(attachment.role_name, other_name)
        if attachment.kind is not RoleKind.PROVIDER:
            continue
        for customer_name, prefix in context.customer_prefixes:
            if prefix not in exported:
                result.customer_unreachable.append(
                    f"{attachment.role_name} would not receive "
                    f"{customer_name}'s prefix {prefix} from "
                    f"{attachment.router}"
                )
                blame(attachment.role_name, customer_name)
    for customer in roles.customers:
        config = configs.get(customer.router)
        exported = (
            _exported_prefixes(
                simulation, customer.router, config, customer.peer.peer_ip,
                context.wanted,
            )
            if config is not None
            else set()
        )
        for index in roles.indices():
            if roles.groups[index][0].kind is not RoleKind.PROVIDER:
                continue  # peers owe the customers nothing
            for owner_name, prefix in context.prefixes_of.get(index, ()):
                if prefix not in exported:
                    result.isp_prefixes_missing_at_hub.append(
                        f"{customer.router} would not advertise "
                        f"{owner_name}'s prefix {prefix} to "
                        f"{customer.role_name}"
                    )
                    blame(customer.role_name, owner_name)
    return result
