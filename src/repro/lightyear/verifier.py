"""Verification of local invariants against parsed configs.

Violations carry a concrete counterexample route, phrased the way
Table 3's semantic-error prompt is ("The route-map DROP_COMMUNITY
permits routes that have the community 100:1. However, they should be
denied.").

Each checker binds its route map to the config once
(:meth:`~repro.netmodel.routing_policy.RouteMap.prepare`) and walks the
memoized candidate grid through the prepared evaluator, so the per-route
cost is pure evaluation — no repeated name resolution.

Checks are memoized per (invariant, canonicalized route-map structure).
The synthesis loop checks each distinct draft once, but drafts that
differ elsewhere keep the same policy, and campaign grids repeat the
same reference shapes across seeds and profiles, so this verdict memo
serves repeats across drafts.  The canonical key resolves named lists
through the config (see :func:`repro.symbolic.canonical_route_map_key`),
so a cache hit is guaranteed to denote a semantically identical check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..netmodel.device import RouterConfig
from ..netmodel.route import Route
from ..netmodel.routing_policy import Action, PolicyEvaluationError, RouteMap
from ..symbolic import CandidateUniverse, RouteConstraint, canonical_route_map_key
from ..symbolic.memo import MemoCache
from .invariants import (
    EgressFilterInvariant,
    EgressPrependInvariant,
    IngressTagInvariant,
)

__all__ = ["InvariantViolation", "verify_invariant", "verify_invariants"]

# (invariant, canonical policy key) -> Optional[InvariantViolation]
_VERDICT_CACHE = MemoCache("invariant-verdict")


@dataclass(frozen=True)
class InvariantViolation:
    """One local-invariant failure with its witness route."""

    invariant: object
    router: str
    policy_name: str
    witness: Route
    message: str


def verify_invariants(
    configs: "dict[str, RouterConfig]", invariants: Sequence[object]
) -> List[InvariantViolation]:
    """Check every invariant, returning all violations found."""
    violations: List[InvariantViolation] = []
    for invariant in invariants:
        config = configs.get(invariant.router)
        if config is None:
            violations.append(
                InvariantViolation(
                    invariant=invariant,
                    router=invariant.router,
                    policy_name="",
                    witness=Route(prefix=_placeholder_prefix()),
                    message=f"router {invariant.router} has no configuration",
                )
            )
            continue
        violation = verify_invariant(config, invariant)
        if violation is not None:
            violations.append(violation)
    return violations


def verify_invariant(
    config: RouterConfig, invariant: object
) -> Optional[InvariantViolation]:
    """Check one invariant; ``None`` means it holds."""
    checker = _CHECKERS.get(type(invariant))
    if checker is None:
        raise TypeError(f"unknown invariant type: {type(invariant).__name__}")
    route_map, name = _attached_policy(
        config, invariant.neighbor_ip, invariant.direction
    )
    if route_map is None:
        return _missing_policy_violation(invariant, name)
    policy_key = canonical_route_map_key(config, route_map)
    if policy_key is None:
        return checker(config, route_map, invariant)
    key = (invariant, policy_key)
    hit, verdict = _VERDICT_CACHE.lookup(key)
    if hit:
        return verdict
    verdict = checker(config, route_map, invariant)
    _VERDICT_CACHE.store(key, verdict)
    return verdict


def _attached_policy(
    config: RouterConfig, neighbor_ip, direction: str
) -> "tuple[Optional[RouteMap], str]":
    if config.bgp is None:
        return None, ""
    neighbor = config.bgp.get_neighbor(neighbor_ip)
    if neighbor is None:
        return None, ""
    name = (
        neighbor.import_policy if direction == "import" else neighbor.export_policy
    )
    if name is None:
        return None, ""
    return config.get_route_map(name), name


def _missing_policy_violation(
    invariant: object, policy_name: str
) -> InvariantViolation:
    """The "no route-map attached" violation, phrased per invariant."""
    if isinstance(invariant, IngressTagInvariant):
        message = (
            f"No import route-map is attached for neighbor "
            f"{invariant.neighbor_ip} on {invariant.router}, so routes "
            f"are not tagged with the community {invariant.community}"
        )
    elif isinstance(invariant, EgressFilterInvariant):
        message = (
            f"No export route-map is attached for neighbor "
            f"{invariant.neighbor_ip} on {invariant.router}, so tagged "
            f"routes are not filtered"
        )
    else:
        message = (
            f"No export route-map is attached for neighbor "
            f"{invariant.neighbor_ip} on {invariant.router}, so routes "
            f"are exported without the AS-path prepend"
        )
    return InvariantViolation(
        invariant=invariant,
        router=invariant.router,
        policy_name=policy_name,
        witness=Route(prefix=_placeholder_prefix()),
        message=message,
    )


def _verify_ingress_tag(
    config: RouterConfig,
    route_map: RouteMap,
    invariant: IngressTagInvariant,
) -> Optional[InvariantViolation]:
    universe = CandidateUniverse.for_policy(config, route_map)
    evaluate = route_map.prepare(config).evaluate
    for route in universe.cached_routes():
        try:
            outcome = evaluate(route)
        except PolicyEvaluationError:
            continue
        if outcome.action is Action.PERMIT and (
            invariant.community not in outcome.route.communities
        ):
            return InvariantViolation(
                invariant=invariant,
                router=invariant.router,
                policy_name=route_map.name,
                witness=route,
                message=(
                    f"The route-map {route_map.name} permits the route "
                    f"[{route.describe()}] without adding the community "
                    f"{invariant.community}. However, every route accepted "
                    f"from neighbor {invariant.neighbor_ip} should carry it."
                ),
            )
    return None


def _verify_egress_filter(
    config: RouterConfig,
    route_map: RouteMap,
    invariant: EgressFilterInvariant,
) -> Optional[InvariantViolation]:
    evaluate = route_map.prepare(config).evaluate
    for community in sorted(invariant.forbidden):
        constraint = RouteConstraint.with_community(community)
        universe = CandidateUniverse.for_policy(config, route_map)
        universe.add_constraint(constraint)
        for route in universe.cached_routes(constraint):
            try:
                outcome = evaluate(route)
            except PolicyEvaluationError:
                continue
            if outcome.action is Action.PERMIT:
                return InvariantViolation(
                    invariant=invariant,
                    router=invariant.router,
                    policy_name=route_map.name,
                    witness=route,
                    message=(
                        f"The route-map {route_map.name} permits routes that "
                        f"have the community {community}. However, they "
                        f"should be denied."
                    ),
                )
    return None


def _verify_egress_prepend(
    config: RouterConfig,
    route_map: RouteMap,
    invariant: EgressPrependInvariant,
) -> Optional[InvariantViolation]:
    expected = (invariant.asn,) * invariant.count
    universe = CandidateUniverse.for_policy(config, route_map)
    evaluate = route_map.prepare(config).evaluate
    for route in universe.cached_routes():
        try:
            outcome = evaluate(route)
        except PolicyEvaluationError:
            continue
        if outcome.action is not Action.PERMIT:
            continue
        added = outcome.route.as_path.asns[
            : len(outcome.route.as_path.asns) - len(route.as_path.asns)
        ]
        if added != expected:
            found = len([asn for asn in added if asn == invariant.asn])
            return InvariantViolation(
                invariant=invariant,
                router=invariant.router,
                policy_name=route_map.name,
                witness=route,
                message=(
                    f"The route-map {route_map.name} exports the route "
                    f"[{route.describe()}] with AS {invariant.asn} prepended "
                    f"{found} time(s). However, it must be prepended "
                    f"{invariant.count} time(s)."
                ),
            )
    return None


_CHECKERS = {
    IngressTagInvariant: _verify_ingress_tag,
    EgressFilterInvariant: _verify_egress_filter,
    EgressPrependInvariant: _verify_egress_prepend,
}


def _placeholder_prefix():
    from ..netmodel.ip import Prefix

    return Prefix.parse("0.0.0.0/0")
