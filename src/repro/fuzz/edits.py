"""The policy-edit catalog the fuzzer mutates scenarios with.

Each operation is a *deterministic* function of ``(configs, router)``:
given the same configuration dict and router name it always performs
the same mutation (or returns ``False`` when inapplicable, which is
itself a deterministic outcome).  Determinism is what makes a corpus
file a repro — replaying the serialized edit sequence reproduces the
exact configs the fuzzer saw, byte for byte.

The catalog is deliberately adversarial toward the toggle surface:

* ``permit_all_egress`` / ``drop_first_deny`` flip no-transit verdicts
  (the verifier differential);
* ``strip_additive`` re-creates the paper's "Adding Communities" IIP
  bug (community-set divergence);
* ``bump_local_pref`` makes an ingress map decision-*affecting*, which
  disables the decision-cache loser pre-screen;
* ``announce_shared_prefix`` creates multi-origin prefixes — the
  tie-heavy case where best-path tie-break bugs (PR 6's ``"" < ""``
  fall-through) actually bite;
* ``withdraw_network`` exercises route invalidation in the
  incremental engine;
* ``drop_core_list_entry`` / ``deny_core_export`` change policy on
  *internal* sessions, where the incremental engine re-advertises just
  the sessions whose policy changed — the first changes only a prefix
  list the core export map matches on, not the map itself;
* ``noop`` changes nothing (the empty-delta resimulation path).
"""

from __future__ import annotations

from typing import Callable, Dict

from ..netmodel.device import RouterConfig
from ..netmodel.routing_policy import (
    Action,
    RouteMap,
    RouteMapClause,
    SetCommunity,
    SetLocalPref,
)

__all__ = ["EDIT_OPS", "apply_edit_op", "resolve_router"]

EditOp = Callable[[Dict[str, RouterConfig], str], bool]


def _sorted_maps(config: RouterConfig, prefix: str):
    return [
        config.route_maps[name]
        for name in sorted(config.route_maps)
        if name.startswith(prefix)
    ]


def permit_all_egress(configs: Dict[str, RouterConfig], router: str) -> bool:
    """Replace the router's first egress filter with permit-all."""
    config = configs[router]
    maps = _sorted_maps(config, "FILTER_COMM_OUT_")
    if not maps:
        return False
    replacement = RouteMap(maps[0].name)
    replacement.add_clause(RouteMapClause(seq=10, action=Action.PERMIT))
    config.route_maps[replacement.name] = replacement
    return True


def drop_first_deny(configs: Dict[str, RouterConfig], router: str) -> bool:
    """Remove the first deny stanza of the first egress filter that has
    one (a partial no-transit hole, subtler than permit-all)."""
    for route_map in _sorted_maps(configs[router], "FILTER_COMM_OUT_"):
        denies = [c for c in route_map.clauses if c.action is Action.DENY]
        if denies:
            route_map.clauses.remove(denies[0])
            return True
    return False


def strip_additive(configs: Dict[str, RouterConfig], router: str) -> bool:
    """Make the first additive ingress ``set community`` replacing —
    the paper's §4.2 "Adding Communities" bug."""
    for route_map in _sorted_maps(configs[router], "ADD_COMM_"):
        for clause in route_map.clauses:
            for index, action in enumerate(clause.sets):
                if isinstance(action, SetCommunity) and action.additive:
                    clause.sets[index] = SetCommunity(
                        action.communities, additive=False
                    )
                    return True
    return False


def bump_local_pref(configs: Dict[str, RouterConfig], router: str) -> bool:
    """Append ``set local-preference 150`` to the first permit clause of
    the router's first route map (sorted).  Makes the map decision-
    affecting, which switches off the loser pre-screen fast path."""
    config = configs[router]
    for name in sorted(config.route_maps):
        for clause in config.route_maps[name].clauses:
            if clause.action is Action.PERMIT:
                if any(isinstance(s, SetLocalPref) for s in clause.sets):
                    return False  # already bumped by an earlier edit
                clause.sets.append(SetLocalPref(150))
                return True
    return False


def announce_shared_prefix(
    configs: Dict[str, RouterConfig], router: str
) -> bool:
    """Additionally originate the first prefix announced by the
    lexicographically-first *other* router: multi-origin prefixes are
    what make best-path tie-breaks observable."""
    config = configs[router]
    if config.bgp is None:
        return False
    for other in sorted(configs):
        if other == router or configs[other].bgp is None:
            continue
        for prefix in configs[other].bgp.networks:
            if not config.bgp.announces(prefix):
                config.bgp.announce(prefix)
                return True
    return False


def withdraw_network(configs: Dict[str, RouterConfig], router: str) -> bool:
    """Withdraw the router's first originated prefix."""
    config = configs[router]
    if config.bgp is None or not config.bgp.networks:
        return False
    del config.bgp.networks[0]
    return True


def drop_core_list_entry(configs: Dict[str, RouterConfig], router: str) -> bool:
    """Drop the first entry of the first prefix list the router's core
    export map matches on (the map itself stays as it is)."""
    config = configs[router]
    for route_map in _sorted_maps(config, "EXPORT_CORE_"):
        for name in route_map.referenced_prefix_lists():
            prefix_list = config.prefix_lists.get(name)
            if prefix_list is not None and prefix_list.entries:
                del prefix_list.entries[0]
                return True
    return False


def deny_core_export(configs: Dict[str, RouterConfig], router: str) -> bool:
    """Prepend a deny-all clause to the router's core export map: the
    router stops advertising into the core."""
    for route_map in _sorted_maps(configs[router], "EXPORT_CORE_"):
        first = route_map.clauses[0]
        if first.action is Action.DENY:
            return False  # already denied by an earlier edit
        route_map.add_clause(RouteMapClause(seq=first.seq - 1, action=Action.DENY))
        return True
    return False


def noop(configs: Dict[str, RouterConfig], router: str) -> bool:
    """Change nothing: the incremental engine must derive an empty
    delta and still match a full run."""
    return True


EDIT_OPS: Dict[str, EditOp] = {
    "permit_all_egress": permit_all_egress,
    "drop_first_deny": drop_first_deny,
    "strip_additive": strip_additive,
    "bump_local_pref": bump_local_pref,
    "announce_shared_prefix": announce_shared_prefix,
    "withdraw_network": withdraw_network,
    "drop_core_list_entry": drop_core_list_entry,
    "deny_core_export": deny_core_export,
    "noop": noop,
}


def resolve_router(router_index: int, configs: Dict[str, RouterConfig]) -> str:
    """Map a scenario's abstract router index onto a concrete router.

    Indices are stored modulo-free so a shrunk scenario's smaller
    router set still resolves deterministically.
    """
    names = sorted(configs)
    return names[router_index % len(names)]


def apply_edit_op(
    op: str, configs: Dict[str, RouterConfig], router: str
) -> bool:
    """Apply the named operation; ``False`` means it was inapplicable
    (which every toggle combination must agree on, too)."""
    return EDIT_OPS[op](configs, router)
