"""Reference Cisco → Juniper translation over the IR.

This module is the *ground truth* for the translation use case (§3): a
semantics-preserving transform from a Cisco-flavoured
:class:`RouterConfig` to a Juniper-flavoured one.  The simulated GPT-4's
drafts are fault-injected perturbations of this output, so every
difference Campion reports against the source traces back to an injected
fault rather than a translator bug.

The two genuinely tricky translations are exactly the ones the paper
highlights:

* **prefix lists with ``ge``/``le``** (§3.2): Junos prefix-lists cannot
  carry length ranges, so any route-map match on such a list is lowered
  to inline ``route-filter ... prefix-length-range`` terms;
* **redistribution into BGP** (§3.2/Table 2): Cisco's ``redistribute
  <proto> route-map M`` becomes extra export-policy terms guarded by
  ``from protocol <proto>``, and — crucially — the original BGP export
  terms gain a ``from protocol bgp`` guard so they do not accidentally
  re-export IGP routes (the missing "from bgp" condition GPT-4 could not
  supply on its own).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from ..netmodel.device import RouterConfig, Vendor
from ..netmodel.route import Protocol
from ..netmodel.routing_policy import (
    Action,
    MatchAcl,
    MatchPrefixList,
    MatchPrefixRanges,
    MatchProtocol,
    RouteMap,
    RouteMapClause,
)
from ..netmodel.value import ir_copy

__all__ = ["TranslationNotes", "translate_cisco_to_juniper"]


@dataclass
class TranslationNotes:
    """Bookkeeping produced alongside a translation.

    ``range_lowered_lists`` and ``redistribution_policies`` record where
    the two hard transformations fired; tests assert on them and the
    fault injector uses them to aim its perturbations at realistic spots.
    """

    range_lowered_lists: List[str] = field(default_factory=list)
    redistribution_policies: List[str] = field(default_factory=list)
    guarded_export_policies: List[str] = field(default_factory=list)


def translate_cisco_to_juniper(
    cisco: RouterConfig,
) -> "tuple[RouterConfig, TranslationNotes]":
    """Translate a Cisco IR config into an equivalent Juniper IR config."""
    notes = TranslationNotes()
    juniper = ir_copy(cisco)
    juniper.vendor = Vendor.JUNIPER
    _lower_ranged_prefix_lists(juniper, notes)
    _guard_all_export_policies(juniper, notes)
    _fold_redistribution_into_exports(juniper, notes)
    return juniper, notes


def _guard_all_export_policies(config: RouterConfig, notes: TranslationNotes) -> None:
    """Every export policy needs ``from protocol bgp`` guards.

    A Cisco neighbor export route-map only ever sees BGP routes; a Junos
    export policy sees the whole routing table, so an unguarded permit
    term would silently redistribute direct/IGP routes — with or without
    any explicit ``redistribute`` statement on the Cisco side.
    """
    bgp = config.bgp
    if bgp is None:
        return
    export_names = sorted(
        {
            neighbor.export_policy
            for neighbor in bgp.neighbors.values()
            if neighbor.export_policy is not None
        }
    )
    for name in export_names:
        route_map = config.get_route_map(name)
        if route_map is not None:
            _guard_existing_terms(route_map, notes)


def _lower_ranged_prefix_lists(config: RouterConfig, notes: TranslationNotes) -> None:
    """Replace matches on ranged prefix lists with inline route filters."""
    # Lists that cannot be expressed as Junos prefix-lists: any entry
    # with a length range, or any deny entry (Junos prefix-lists are
    # permit-only); both lower to route-filters over the *permitted*
    # space, which accounts for deny shadowing.
    ranged: Set[str] = {
        name
        for name, prefix_list in config.prefix_lists.items()
        if any(
            not entry.range.is_exact() or entry.action == "deny"
            for entry in prefix_list.entries
        )
    }
    if not ranged and not config.access_lists:
        return
    for route_map in config.route_maps.values():
        for clause in route_map.clauses:
            rewritten = []
            for condition in clause.matches:
                if (
                    isinstance(condition, MatchPrefixList)
                    and condition.name in ranged
                ):
                    prefix_list = config.prefix_lists[condition.name]
                    permit_ranges = tuple(prefix_list.permitted_ranges())
                    rewritten.append(MatchPrefixRanges(permit_ranges))
                    if condition.name not in notes.range_lowered_lists:
                        notes.range_lowered_lists.append(condition.name)
                elif isinstance(condition, MatchAcl):
                    # Junos has no standard ACLs for route filtering;
                    # lower contiguous entries to route filters.
                    access_list = config.access_lists.get(condition.name)
                    if access_list is not None:
                        rewritten.append(
                            MatchPrefixRanges(
                                tuple(access_list.permitted_ranges())
                            )
                        )
                        if condition.name not in notes.range_lowered_lists:
                            notes.range_lowered_lists.append(condition.name)
                    else:
                        rewritten.append(condition)
                else:
                    rewritten.append(condition)
            clause.matches = rewritten


def _fold_redistribution_into_exports(
    config: RouterConfig, notes: TranslationNotes
) -> None:
    """Turn ``redistribute`` statements into guarded export-policy terms."""
    bgp = config.bgp
    if bgp is None or not bgp.redistributions:
        return
    export_names = sorted(
        {
            neighbor.export_policy
            for neighbor in bgp.neighbors.values()
            if neighbor.export_policy is not None
        }
    )
    for name in export_names:
        route_map = config.get_route_map(name)
        if route_map is None:
            continue
        # New terms must precede a trailing unconditional reject, or they
        # would be dead code; pop it, append, and re-add it last.
        trailing_deny = None
        if (
            route_map.clauses
            and route_map.clauses[-1].action is Action.DENY
            and not route_map.clauses[-1].matches
        ):
            trailing_deny = route_map.clauses.pop()
        next_seq = (route_map.clauses[-1].seq + 10) if route_map.clauses else 10
        for redistribution in bgp.redistributions:
            clause = RouteMapClause(
                seq=next_seq,
                action=Action.PERMIT,
                term_name=f"redistribute-{redistribution.protocol.value}",
            )
            clause.matches.append(MatchProtocol(redistribution.protocol))
            if redistribution.route_map is not None:
                source_map = config.get_route_map(redistribution.route_map)
                if source_map is not None:
                    clause = _merge_redistribution_map(
                        clause, source_map, next_seq, redistribution.protocol
                    )
            route_map.add_clause(clause)
            next_seq += 10
            if name not in notes.redistribution_policies:
                notes.redistribution_policies.append(name)
        if trailing_deny is not None:
            trailing_deny.seq = next_seq
            route_map.add_clause(trailing_deny)
    bgp.redistributions = []


def _guard_existing_terms(route_map: RouteMap, notes: TranslationNotes) -> None:
    """Prepend ``from protocol bgp`` to terms lacking a protocol guard."""
    changed = False
    for clause in route_map.clauses:
        has_protocol_guard = any(
            isinstance(condition, MatchProtocol) for condition in clause.matches
        )
        if not has_protocol_guard and clause.action is Action.PERMIT:
            clause.matches.insert(0, MatchProtocol(Protocol.BGP))
            changed = True
    if changed and route_map.name not in notes.guarded_export_policies:
        notes.guarded_export_policies.append(route_map.name)


def _merge_redistribution_map(
    clause: RouteMapClause,
    source_map: RouteMap,
    seq: int,
    protocol: Protocol,
) -> RouteMapClause:
    """Fold a Cisco redistribution route-map's first permit clause in.

    Cisco applies the route-map as a filter on redistributed routes; the
    equivalent Junos term carries the same matches plus the protocol
    guard.  Multi-clause redistribution maps are folded clause-by-clause
    upstream; the experiments use single-clause maps.
    """
    merged = RouteMapClause(
        seq=seq,
        action=Action.PERMIT,
        term_name=clause.term_name,
    )
    merged.matches.append(MatchProtocol(protocol))
    for source_clause in source_map.clauses:
        if source_clause.action is Action.PERMIT:
            merged.matches.extend(source_clause.matches)
            merged.sets.extend(source_clause.sets)
            break
    return merged
