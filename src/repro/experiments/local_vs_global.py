"""Local vs global policy prompts (§4.1).

"We tried specifying to GPT-4 the global no-transit policy at once.
GPT-4 generated two innovative strategies: filtering routes using AS
path regular expressions, and denying ISP prefixes from being advertised
to other routers from the customer router.  Unfortunately ... when we
provided feedback in terms of a counterexample packet ... GPT-4 was
confused and kept oscillating between incorrect strategies."

The global-prompt model here implements exactly those two strategies —
both plausible, both globally wrong — and flips between them on every
counterexample, reproducing the oscillation.  The local approach is the
regular :func:`run_no_transit_experiment`, which converges.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List

from ..lightyear.compose import IncrementalGlobalChecker, check_global_no_transit
from ..netmodel.aspath import AsPathAccessList
from ..netmodel.device import RouterConfig
from ..netmodel.routing_policy import (
    Action,
    MatchAsPathList,
    MatchPrefixList,
    RouteMap,
    RouteMapClause,
)
from ..netmodel.ip import PrefixRange
from ..netmodel.prefixlist import PrefixList
from ..topology import StarNetwork, generate_network, generate_star_network
from ..topology.generator import CUSTOMER_ASN
from ..topology.reference import build_reference_configs
from .no_transit import run_no_transit_experiment

__all__ = [
    "LocalVsGlobalResult",
    "OscillatingGlobalModel",
    "run_local_vs_global",
]


class OscillatingGlobalModel:
    """Simulated GPT-4 under a single global-spec prompt.

    Produces whole-network snapshots; every counterexample prompt makes
    it abandon the current (incorrect) strategy for the other one.
    """

    STRATEGIES = ("as-path-regex", "deny-at-customer")

    def __init__(self, star: StarNetwork) -> None:
        """``star`` may be any generated network (StarNetwork or
        GeneratedNetwork) — the strategies rewrite whichever routers
        carry the egress filters."""
        self._star = star
        self._references = build_reference_configs(star.topology)
        self._strategy_index = 0
        self.strategy_history: List[str] = []

    @property
    def current_strategy(self) -> str:
        return self.STRATEGIES[self._strategy_index % 2]

    def generate(self) -> Dict[str, RouterConfig]:
        """The current full-network draft."""
        self.strategy_history.append(self.current_strategy)
        configs = {
            name: copy.deepcopy(config)
            for name, config in self._references.items()
        }
        if self.current_strategy == "as-path-regex":
            for config in configs.values():
                self._apply_as_path_strategy(config)
        else:
            for config in configs.values():
                self._replace_filters_with_permit_all(config)
            self._apply_customer_deny_strategy(
                self._customer_router(configs)
            )
        return configs

    @staticmethod
    def _customer_router(configs: Dict[str, RouterConfig]) -> RouterConfig:
        """The router holding the CUSTOMER session (R1 in every bundled
        family)."""
        for config in configs.values():
            if config.bgp is not None and (
                config.bgp.get_neighbor("100.0.0.2") is not None
            ):
                return config
        raise ValueError("no router peers with the CUSTOMER at 100.0.0.2")

    def feedback(self, counterexample: str) -> None:
        """A global counterexample confuses the model into switching
        strategies (§4.1's oscillation)."""
        self._strategy_index += 1

    # -- the two plausible-but-wrong strategies ------------------------------

    def _apply_as_path_strategy(self, config: RouterConfig) -> None:
        """Filter at egress by AS-path regex — but the regex only drops
        paths through the CUSTOMER AS, which transit routes never carry,
        so ISP-to-ISP leakage persists."""
        filters = [
            name
            for name in config.route_maps
            if name.startswith("FILTER_COMM_OUT_")
        ]
        if not filters:
            return
        as_path_list = AsPathAccessList("1")
        as_path_list.add("deny", f"_{CUSTOMER_ASN}_")
        as_path_list.add("permit", ".*")
        config.add_as_path_list(as_path_list)
        for name in filters:
            replacement = RouteMap(name)
            clause = RouteMapClause(seq=10, action=Action.PERMIT)
            clause.matches.append(MatchAsPathList("1"))
            replacement.add_clause(clause)
            config.route_maps[name] = replacement

    @staticmethod
    def _replace_filters_with_permit_all(config: RouterConfig) -> None:
        for name in list(config.route_maps):
            if name.startswith("FILTER_COMM_OUT_"):
                config.route_maps[name] = _permit_all_map(name)

    def _apply_customer_deny_strategy(self, hub: RouterConfig) -> None:
        """Deny ISP prefixes toward the CUSTOMER — which does nothing
        about ISP-to-ISP transit elsewhere in the network."""
        customer_router_name = hub.hostname or "R1"
        prefix_list = PrefixList("isp-prefixes")
        for name in self._star.topology.router_names():
            if name == customer_router_name:
                continue
            for network in self._star.topology.router(name).networks:
                prefix_list.add("permit", PrefixRange.exact(network))
        hub.add_prefix_list(prefix_list)
        customer_filter = RouteMap("DENY_ISP_TO_CUSTOMER")
        deny = RouteMapClause(seq=10, action=Action.DENY)
        deny.matches.append(MatchPrefixList("isp-prefixes"))
        customer_filter.add_clause(deny)
        customer_filter.add_clause(RouteMapClause(seq=20, action=Action.PERMIT))
        hub.add_route_map(customer_filter)
        assert hub.bgp is not None
        customer_neighbor = hub.bgp.get_neighbor("100.0.0.2")
        if customer_neighbor is not None:
            customer_neighbor.export_policy = "DENY_ISP_TO_CUSTOMER"


def _permit_all_map(name: str) -> RouteMap:
    route_map = RouteMap(name)
    route_map.add_clause(RouteMapClause(seq=10, action=Action.PERMIT))
    return route_map


@dataclass
class LocalVsGlobalResult:
    """Outcome of the comparison."""

    global_converged: bool
    global_rounds: int
    global_strategies: List[str]
    local_converged: bool
    local_correction_prompts: int

    def render(self) -> str:
        oscillation = " -> ".join(self.global_strategies)
        return (
            f"global spec: {'converged' if self.global_converged else 'did NOT converge'} "
            f"after {self.global_rounds} counterexample rounds "
            f"({oscillation}); local specs: "
            f"{'converged' if self.local_converged else 'did not converge'} "
            f"with {self.local_correction_prompts} correction prompts"
        )


def run_local_vs_global(
    router_count: int = 7,
    max_global_rounds: int = 6,
    seed: int = 0,
    family: str = "star",
) -> LocalVsGlobalResult:
    """Drive both prompting regimes on the same network (any family)."""
    star = (
        generate_star_network(router_count)
        if family == "star"
        else generate_network(family, router_count)
    )
    model = OscillatingGlobalModel(star)
    converged = False
    rounds = 0
    # One warm simulation state across all counterexample rounds: each
    # global re-check re-converges only what the model rewrote.
    checker = IncrementalGlobalChecker()
    for rounds in range(1, max_global_rounds + 1):
        configs = model.generate()
        check = check_global_no_transit(configs, star.topology, checker=checker)
        if check.holds:
            converged = True
            break
        counterexample = (
            check.transit_violations
            + check.customer_unreachable
            + check.isp_prefixes_missing_at_hub
        )[0]
        model.feedback(
            f"The no-transit policy is violated: {counterexample}. "
            f"Please fix the configurations."
        )
    local = run_no_transit_experiment(
        router_count=router_count, seed=seed, family=family
    )
    return LocalVsGlobalResult(
        global_converged=converged,
        global_rounds=rounds,
        global_strategies=list(model.strategy_history),
        local_converged=local.result.verified,
        local_correction_prompts=(
            local.result.prompt_log.automated + local.result.prompt_log.human
        ),
    )
