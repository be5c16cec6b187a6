"""SearchRoutePolicies: find routes a policy treats a given way.

This is the semantic-verifier primitive of the paper's second use case
(§4.1): "In case there is a semantic error, Batfish produces an example
where the local policy is not followed."  The search evaluates the
concrete route map over the structured candidate grid of
:mod:`repro.symbolic.candidates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..netmodel.device import RouterConfig
from ..netmodel.route import Route
from ..netmodel.routing_policy import Action, PolicyEvaluationError, RouteMap
from .candidates import CandidateUniverse
from .constraints import RouteConstraint

__all__ = ["PolicySearchResult", "search_route_policies"]


@dataclass(frozen=True)
class PolicySearchResult:
    """One witness route and how the policy disposed of it."""

    input_route: Route
    action: Action
    output_route: Optional[Route]
    policy_name: str


def search_route_policies(
    config: RouterConfig,
    policy: "RouteMap | str",
    action: Action,
    constraint: Optional[RouteConstraint] = None,
    limit: int = 10,
) -> List[PolicySearchResult]:
    """Find up to ``limit`` routes in ``constraint`` that the policy
    disposes of with ``action``.

    An empty result means no candidate in the (finite but
    region-covering) grid exhibits the behaviour — the verification
    *passes* when the caller was looking for a violation.
    """
    route_map = _resolve(config, policy)
    universe = CandidateUniverse()
    universe.add_policy(config, route_map)
    if constraint is not None:
        universe.add_constraint(constraint)
    results: List[PolicySearchResult] = []
    for route in universe.routes(constraint):
        try:
            outcome = route_map.evaluate(route, config)
        except PolicyEvaluationError:
            # Undefined references are a structural problem reported by
            # the syntax/structure verifiers, not a semantic witness.
            continue
        if outcome.action is action:
            results.append(
                PolicySearchResult(
                    input_route=route,
                    action=outcome.action,
                    output_route=outcome.route if outcome.permitted else None,
                    policy_name=route_map.name,
                )
            )
            if len(results) >= limit:
                break
    return results


def _resolve(config: RouterConfig, policy: "RouteMap | str") -> RouteMap:
    if isinstance(policy, RouteMap):
        return policy
    found = config.get_route_map(policy)
    if found is None:
        raise KeyError(f"route-map {policy!r} is not defined on {config.hostname}")
    return found
