"""BGP control-plane simulation over a snapshot of router configs.

This is the "simulate the entire BGP communication using Batfish as a
final step" of §4.1: after the per-router local policies verify, the
whole network is simulated to confirm the *global* no-transit policy.

The simulator:

* derives eBGP sessions from mutual neighbor declarations (A declares a
  neighbor address owned by B with B's AS, and vice versa);
* originates a router's ``network`` statements as BGP routes;
* propagates routes to fixpoint with one worklist over directed
  sessions, applying the advertiser's export route-map, AS-path
  prepending, AS-loop rejection, and the receiver's import route-map;
* runs standard best-path selection (local-pref, AS-path length, MED,
  total tie-break on advertiser then originator name for determinism).

A new advertisement *replaces* the receiver's route from the same
sender (an implicit withdrawal): when the sender's new offer is worse,
denied, reflected or gone, the receiver re-selects from its
neighbours' current offers.  At the fixpoint every router therefore
holds the best of its neighbours' *current* routes — a stable state in
the sense of Griffin, Shepherd & Wilfong's Stable Paths Problem — and
no learned entry outlives its advertiser's entry, so the state reached
does not depend on the order sessions are processed in.

Best-path selection is driven by a *decision cache*: every
:class:`RibEntry` computes its C-ordered decision tuple once at
construction (``RibEntry.decision_key``), so comparing two candidates
is a single tuple ``<``.  Each session's export and import policies are
bound to their configs once per simulation
(:meth:`~repro.netmodel.routing_policy.RouteMap.prepare`), so the
per-entry export pipeline pays no repeated name resolution.

Communities always propagate (Junos default); the experiments' policies
tag and filter within a single router, so Cisco's ``send-community``
subtlety does not change any experiment outcome — the flag is still
parsed and carried in the IR for completeness.

Incremental re-simulation
-------------------------

Campaign grids and synthesis rounds re-converge the same network over
and over with only a handful of routers changed between runs.
:class:`SimulationState` keeps a warm, converged simulation and derives
the delta from the configs themselves (:func:`config_delta`).  A
*policy-only* edit re-advertises just the directed sessions whose
effective policy changed, through the same worklist a full run uses;
the implicit withdrawal retracts what a tighter policy no longer
allows, and an edit no simulated session uses costs nothing.  Any
other edit dirties its router: every RIB entry records the routers its
route traversed (``RibEntry.path``), so entries whose provenance avoids
the dirty routers survive verbatim, while the rest are invalidated and
refilled by the worklist.  A converged incremental state is always
identical to a from-scratch run (the differential property tests assert
this per topology family); if the worklist ever exceeds its budget the
state falls back to a full convergence, so incrementality can change
performance but never verdicts.
"""

from __future__ import annotations

import copy
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from ..netmodel.device import RouterConfig
from ..netmodel.ip import Ipv4Address, Prefix
from ..netmodel.route import Protocol, Route
from ..obs import counter, span, timer
from ..netmodel.routebuilder import RouteBuilder, export_route
from ..netmodel.routing_policy import (
    Action,
    MatchAsPathList,
    MatchCommunityList,
    MatchPrefixList,
    PolicyEvaluationError,
    SetLocalPref,
    SetMed,
)

__all__ = [
    "BgpSession",
    "BgpSimulation",
    "ConfigDelta",
    "ResimStats",
    "RibEntry",
    "SimulationState",
    "config_delta",
    "incremental_simulation_enabled",
    "reset_sim_stats",
    "rib_snapshots",
    "set_incremental_simulation",
    "sim_totals",
]

MAX_ITERATIONS = 64


@dataclass(frozen=True)
class BgpSession:
    """An established (bidirectional) eBGP session between two routers."""

    local_router: str
    local_ip: Ipv4Address
    remote_router: str
    remote_ip: Ipv4Address

    def reversed(self) -> "BgpSession":
        return BgpSession(
            local_router=self.remote_router,
            local_ip=self.remote_ip,
            remote_router=self.local_router,
            remote_ip=self.local_ip,
        )


@dataclass(frozen=True)
class RibEntry:
    """A route installed in a router's BGP RIB, with provenance.

    ``path`` lists every router the route traversed before reaching the
    holder, origin first (empty for locally originated routes).  The
    incremental engine invalidates exactly the entries whose path
    crosses a changed router: everything about such an entry — the
    export maps applied, the prepends, the tags — was computed from a
    configuration that no longer exists.

    ``decision_key`` is the C-ordered BGP decision tuple, computed once
    at construction: ``(not locally-originated, -local_pref, as-path
    length, med, learned_from, origin_router, as-path asns, path)``.  A
    plain tuple ``<`` prefers the better entry, so best-path selection
    is one comparison instead of a cascade of attribute checks — and
    the trailing ``(learned_from, origin_router, asns, path)`` segment
    makes the tie-break *total over route content*: any two
    distinguishable entries are strictly ordered, independent of
    arrival order.  The content components matter because the leading
    attributes are not injective — two routes from the same neighbor
    with the same originator can still carry different (equal-length)
    AS paths, and the differential fuzzer demonstrated that breaking
    such a tie by arrival order makes incremental re-simulation diverge
    from a from-scratch run.
    """

    route: Route
    learned_from: Optional[str]  # hostname, or None for locally originated
    origin_router: str  # hostname of the originator
    path: Tuple[str, ...] = ()  # routers traversed, origin first
    decision_key: Tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "decision_key",
            (self.learned_from is not None,)
            + self.route.decision_slice()
            + (
                self.learned_from or "",
                self.origin_router,
                self.route.as_path.asns,
                self.path,
            ),
        )

    @classmethod
    def _learned(
        cls,
        route: Route,
        learned_from: str,
        origin_router: str,
        path: Tuple[str, ...],
    ) -> "RibEntry":
        """Hot-path constructor for session-learned entries: builds the
        decision key flat and skips the dataclass ``__init__`` /
        ``__post_init__`` chain (the export pipeline constructs one
        entry per candidate, so this is converge-dominant)."""
        entry = object.__new__(cls)
        new = object.__setattr__
        new(entry, "route", route)
        new(entry, "learned_from", learned_from)
        new(entry, "origin_router", origin_router)
        new(entry, "path", path)
        new(
            entry,
            "decision_key",
            (
                True,  # learned, never locally originated
                -route.local_pref,
                len(route.as_path.asns),
                route.med,
                learned_from,
                origin_router,
                route.as_path.asns,
                path,
            ),
        )
        return entry


class BgpSimulation:
    """Fixpoint BGP route propagation over a set of configs."""

    def __init__(self, configs: Dict[str, RouterConfig]) -> None:
        """``configs`` maps hostname to parsed config."""
        self._configs = dict(configs)
        self._address_owner = self._index_addresses()
        self._sessions = self._derive_sessions()
        self._ribs: Dict[str, Dict[Prefix, RibEntry]] = {
            hostname: {} for hostname in self._configs
        }
        self._converged = False
        self._iterations = 0
        self.evaluations = 0  # route-map/install evaluations performed
        # (config id, map name) -> PreparedRouteMap; configs are fixed
        # for the lifetime of a simulation, so each policy is bound to
        # its config once per convergence, not once per session visit.
        self._prepared: Dict[Tuple[int, str], object] = {}
        # (sender, receiver) -> the bound session policy, see
        # _session_policy.
        self._policies: Dict[Tuple[str, str], Tuple] = {}
        self._directed: Dict[Tuple[str, str], BgpSession] = {}
        self._out_edges: Dict[str, List[Tuple[str, str]]] = {}
        self._in_edges: Dict[str, List[Tuple[str, str]]] = {}
        for pair in self._sessions:
            for session in (pair, pair.reversed()):
                key = (session.local_router, session.remote_router)
                self._directed[key] = session
                self._out_edges.setdefault(session.local_router, []).append(key)
                self._in_edges.setdefault(session.remote_router, []).append(key)

    # -- topology derivation ---------------------------------------------------

    def _index_addresses(self) -> Dict[Ipv4Address, str]:
        owners: Dict[Ipv4Address, str] = {}
        for hostname, config in self._configs.items():
            for interface in config.interfaces.values():
                if interface.address is not None:
                    owners[interface.address] = hostname
        return owners

    def _derive_sessions(self) -> List[BgpSession]:
        """Sessions where both sides declare each other correctly."""
        # Each router's own addresses, not _address_owner: that index
        # keeps one owner per address, and two routers may share one.
        addresses: Dict[str, Set[Ipv4Address]] = {
            hostname: {
                interface.address
                for interface in config.interfaces.values()
                if interface.address is not None
            }
            for hostname, config in self._configs.items()
        }
        neighbors = {
            hostname: config.bgp.sorted_neighbors()
            for hostname, config in self._configs.items()
            if config.bgp is not None
        }
        sessions: List[BgpSession] = []
        seen: Set[Tuple[str, str]] = set()
        for hostname, config in self._configs.items():
            if config.bgp is None:
                continue
            for neighbor in neighbors[hostname]:
                remote_hostname = self._address_owner.get(neighbor.ip)
                if remote_hostname is None or remote_hostname == hostname:
                    continue
                remote_config = self._configs[remote_hostname]
                if remote_config.bgp is None:
                    continue
                if neighbor.remote_as != remote_config.bgp.asn:
                    continue
                # The remote must declare a neighbor address owned by us
                # with our AS.
                local_ip = next(
                    (
                        reverse.ip
                        for reverse in neighbors[remote_hostname]
                        if reverse.ip in addresses[hostname]
                        and reverse.remote_as == config.bgp.asn
                    ),
                    None,
                )
                if local_ip is None:
                    continue
                key = tuple(sorted((hostname, remote_hostname)))
                if key in seen:
                    continue
                seen.add(key)
                sessions.append(
                    BgpSession(
                        local_router=hostname,
                        local_ip=local_ip,
                        remote_router=remote_hostname,
                        remote_ip=neighbor.ip,
                    )
                )
        return sessions

    # -- public accessors ---------------------------------------------------------

    @property
    def sessions(self) -> List[BgpSession]:
        """Established sessions (one record per bidirectional session)."""
        return list(self._sessions)

    @property
    def iterations(self) -> int:
        """Directed-session processings of the last propagation."""
        return self._iterations

    def rib(self, hostname: str) -> Dict[Prefix, RibEntry]:
        """The post-convergence RIB of a router."""
        if not self._converged:
            self.run()
        return dict(self._ribs[hostname])

    def rib_entry(self, hostname: str, prefix: Prefix) -> Optional[RibEntry]:
        """A router's post-convergence entry for one prefix, if any: a
        lookup into the RIB itself, where :meth:`rib` returns a copy.
        Raises ``KeyError`` for an unknown router."""
        if not self._converged:
            self.run()
        return self._ribs[hostname].get(prefix)

    def has_route(self, hostname: str, prefix: Prefix) -> bool:
        return self.rib_entry(hostname, prefix) is not None

    def provenance(self, hostname: str, prefix: Prefix) -> Optional[str]:
        """Hostname of the originator of the installed route, if any."""
        entry = self.rib_entry(hostname, prefix)
        return entry.origin_router if entry is not None else None

    def export_clause_finder(self, hostname: str, neighbor_ip: Ipv4Address):
        """The bound ``find_clause`` of ``hostname``'s export map toward
        ``neighbor_ip``: the first clause that accepts a route, ``None``
        for the implicit deny.  The finder itself is ``None`` when no
        map applies (no neighbour, no policy, or an undefined map)."""
        config = self._configs[hostname]
        return self._find_clause(
            config, self._neighbor_policy(config, neighbor_ip, "export")
        )

    def successor(
        self, configs: Dict[str, RouterConfig], changed: Set[str]
    ) -> "BgpSimulation":
        """An unconverged simulation of ``configs``, whose edits are all
        policy-only (on the ``changed`` routers), starting from copies
        of this one's RIBs; this simulation is left untouched.  Session
        tables are shared (never mutated after ``__init__``).  A bound
        session policy carries over if the session touches no changed
        router, a prepared map only if its config object is still in
        ``configs`` (the key is an ``id``, which a freed one may pass
        on)."""
        new = copy.copy(self)
        new._configs = dict(configs)
        new._ribs = {name: dict(rib) for name, rib in self._ribs.items()}
        new._converged, new._iterations, new.evaluations = False, 0, 0
        new._policies = {
            key: policy for key, policy in self._policies.items()
            if changed.isdisjoint(key)
        }
        kept = {
            id(config) for name, config in configs.items()
            if self._configs.get(name) is config
        }
        new._prepared = {
            key: prepared for key, prepared in self._prepared.items()
            if key[0] in kept
        }
        return new

    # -- simulation -------------------------------------------------------------------

    def run(self) -> int:
        """Originate every router's networks, then propagate with every
        router dirty until quiescent; returns :attr:`iterations`.

        If the worklist exhausts its budget the simulation is still
        marked converged; nothing reports the cut-off yet."""
        if self._converged:
            return self._iterations
        self._originate()
        self._propagate(set(self._configs), {})
        self._converged = True
        return self._iterations

    def run_worklist(
        self,
        dirty: Set[str],
        removed: Dict[str, Set[Prefix]],
        seeds: Iterable[Tuple[str, str]] = (),
    ) -> Optional[int]:
        """Re-converge from partially seeded RIBs along dirty sessions.

        ``dirty`` routers were re-originated with empty learned state;
        ``removed`` maps non-dirty routers to the prefixes whose entries
        were invalidated; ``seeds`` are directed sessions whose policy
        changed.  Returns the number of directed-session processings,
        or ``None`` if the worklist exceeded its budget (the caller then
        falls back to a full run).
        """
        processed = self._propagate(dirty, removed, seeds)
        self._converged = processed is not None
        return processed

    def _propagate(
        self,
        dirty: Set[str],
        removed: Dict[str, Set[Prefix]],
        seeds: Iterable[Tuple[str, str]] = (),
    ) -> Optional[int]:
        """The one propagation loop: every session touching a ``dirty``
        router and every ``seeds`` session advertises in full, every
        session into a router with ``removed`` prefixes re-advertises
        those, and any change at a receiver re-queues its outgoing
        sessions for the changed prefixes, until quiescent.  Records the
        number of directed-session processings in :attr:`iterations`;
        returns it, or ``None`` past ``MAX_ITERATIONS`` per directed
        session."""
        pending: "OrderedDict[Tuple[str, str], Optional[Set[Prefix]]]" = (
            OrderedDict()
        )

        def enqueue(key: Tuple[str, str], prefixes: Optional[Set[Prefix]]) -> None:
            if key in pending:
                current = pending[key]
                if current is not None:
                    if prefixes is None:
                        pending[key] = None
                    else:
                        current.update(prefixes)
            else:
                pending[key] = None if prefixes is None else set(prefixes)

        for router in sorted(dirty):
            for key in self._in_edges.get(router, ()):
                enqueue(key, None)
            for key in self._out_edges.get(router, ()):
                enqueue(key, None)
        for router in sorted(removed):
            for key in self._in_edges.get(router, ()):
                enqueue(key, removed[router])
        for key in sorted(seeds):
            enqueue(key, None)

        budget = MAX_ITERATIONS * max(1, len(self._directed))
        processed = 0
        while pending:
            if processed == budget:
                self._iterations = processed
                return None
            processed += 1
            key, prefixes = pending.popitem(last=False)
            changed = self._advertise(key, prefixes)
            if changed:
                for out in self._out_edges.get(key[1], ()):
                    enqueue(out, changed)
        self._iterations = processed
        return processed

    def _originate(self) -> None:
        for hostname in self._configs:
            self._originate_router(hostname)

    def _originate_router(self, hostname: str) -> None:
        config = self._configs[hostname]
        if config.bgp is None:
            return
        rib = self._ribs[hostname]
        for prefix in config.bgp.networks:
            route = Route(prefix=prefix, protocol=Protocol.BGP)
            rib[prefix] = RibEntry(
                route=route, learned_from=None, origin_router=hostname
            )

    def _session_policy(self, key: Tuple[str, str]) -> Tuple[bool, Tuple]:
        """``(screen, pipeline)`` for one directed session, bound once
        per simulation (configs never change within one).  ``pipeline``
        is the session's trailing :meth:`_export_candidate` arguments.
        ``screen`` licenses the loser pre-screen in :meth:`_advertise`:
        neither session map sets local-preference or MED, so no policy
        can *improve* a route's decision attributes (prepends only
        lengthen the AS path, i.e. only worsen it)."""
        policy = self._policies.get(key)
        if policy is None:
            session = self._directed[key]
            sender_config = self._configs[key[0]]
            receiver_config = self._configs[key[1]]
            assert sender_config.bgp is not None and receiver_config.bgp is not None
            export_map = self._neighbor_policy(
                sender_config, session.remote_ip, "export"
            )
            import_map = self._neighbor_policy(
                receiver_config, session.local_ip, "import"
            )
            screen = not any(
                isinstance(set_action, (SetLocalPref, SetMed))
                for route_map in (export_map, import_map)
                if route_map is not None
                for clause in route_map.clauses
                for set_action in clause.sets
            )
            policy = self._policies[key] = (
                screen,
                (
                    self._find_clause(sender_config, export_map),
                    self._find_clause(receiver_config, import_map),
                    key[0],
                    sender_config.bgp.asn,
                    receiver_config.bgp.asn,
                    session.local_ip,
                ),
            )
        return policy

    def _advertise(
        self, key: Tuple[str, str], prefixes: Optional[Set[Prefix]] = None
    ) -> Set[Prefix]:
        """Advertise the sender's RIB across one directed session.

        With ``prefixes``, only those prefixes are advertised (the
        worklist's targeted refill).  An advertisement *replaces* the
        receiver's route from the same sender: when the receiver holds
        the sender's route and the new offer is worse, denied,
        reflected or gone, the receiver re-selects from all its
        neighbours' current offers, so no learned route outlives its
        advertiser's entry.  Returns the prefixes whose RIB entry
        changed at the receiver.
        """
        sender, receiver = key
        screen, pipeline = self._session_policy(key)
        sender_rib = self._ribs[sender]
        receiver_rib = self._ribs[receiver]
        if prefixes is None:
            # Everything the sender holds, plus what the receiver still
            # holds from it (withdrawn since).
            prefixes = set(sender_rib)
            prefixes.update(
                prefix
                for prefix, held in receiver_rib.items()
                if held.learned_from == sender
            )
        changed: Set[Prefix] = set()
        for prefix in prefixes:
            incumbent = receiver_rib.get(prefix)
            replaces = incumbent is not None and incumbent.learned_from == sender
            entry = sender_rib.get(prefix)
            candidate = None
            if entry is not None and entry.learned_from != receiver:
                self.evaluations += 1
                if screen and incumbent is not None and not replaces:
                    # Loser pre-screen: a candidate whose optimistic key
                    # does not beat the incumbent can never install, so
                    # the export pipeline is skipped for it.
                    route = entry.route
                    optimistic = (
                        True,
                        -route.local_pref,
                        len(route.as_path.asns) + 1,
                        route.med,
                        sender,
                        entry.origin_router,
                    )
                    if not optimistic < incumbent.decision_key:
                        continue
                candidate = self._export_candidate(entry, *pipeline)
            if candidate is not None and (
                incumbent is None or candidate.decision_key < incumbent.decision_key
            ):
                receiver_rib[prefix] = candidate
                changed.add(prefix)
            elif replaces and (
                candidate is None or not _same_entry(candidate, incumbent)
            ):
                # Implicit withdrawal: the sender no longer offers the
                # route the receiver holds.
                best = self._reselect(receiver, prefix, sender, candidate)
                if best is None:
                    del receiver_rib[prefix]
                else:
                    receiver_rib[prefix] = best
                changed.add(prefix)
        return changed

    def _reselect(
        self,
        receiver: str,
        prefix: Prefix,
        sender: str,
        offer: Optional[RibEntry],
    ) -> Optional[RibEntry]:
        """The best of the receiver's neighbours' current offers, where
        ``offer`` is ``sender``'s, already through its pipeline."""
        best = offer
        for key in self._in_edges.get(receiver, ()):
            if key[0] == sender:
                continue
            entry = self._ribs[key[0]].get(prefix)
            if entry is None or entry.learned_from == receiver:
                continue
            self.evaluations += 1
            candidate = self._export_candidate(entry, *self._session_policy(key)[1])
            if candidate is not None and (
                best is None or candidate.decision_key < best.decision_key
            ):
                best = candidate
        return best

    def _export_candidate(
        self,
        entry: RibEntry,
        export_find,
        import_find,
        sender: str,
        sender_asn: int,
        receiver_asn: int,
        local_ip: Ipv4Address,
    ) -> Optional[RibEntry]:
        """One sender RIB entry through the export pipeline.

        Matching runs against immutable state first (``find_clause``
        never mutates), so a builder is allocated only when a firing
        clause actually carries set actions; the dominant permit-all
        fall-through reduces to one direct interned construction
        (:func:`~repro.netmodel.routebuilder.export_route`).  Either
        way the pipeline allocates one ``Route``, not one per stage.
        Returns the receiver-side candidate, or ``None`` when any stage
        denies.
        """
        route = entry.route
        # AS paths only grow (export maps can prepend, never strip), so
        # a loop already present in the stored path — or the prepend
        # about to happen — is final.  Export prepends re-check below.
        if receiver_asn == sender_asn or receiver_asn in route.as_path.asns:
            return None
        builder = None
        if export_find is not None:
            try:
                clause = export_find(route)
            except PolicyEvaluationError:
                return None
            if clause is None or clause.action is Action.DENY:
                return None
            if clause.sets:
                builder = RouteBuilder(route)
                clause.apply_sets(builder)
        if builder is None:
            advertised = export_route(route, sender_asn, local_ip)
        else:
            builder.prepend_as(sender_asn)
            builder.set_next_hop(local_ip)
            if builder.path_contains(receiver_asn):
                return None  # AS-loop via an export-map prepend
            advertised = builder.freeze()
        if import_find is not None:
            try:
                clause = import_find(advertised)
            except PolicyEvaluationError:
                return None
            if clause is None or clause.action is Action.DENY:
                return None
            if clause.sets:
                import_builder = RouteBuilder(advertised)
                clause.apply_sets(import_builder)
                advertised = import_builder.freeze()
        return RibEntry._learned(
            advertised, sender, entry.origin_router, entry.path + (sender,)
        )

    def _find_clause(self, config: RouterConfig, route_map):
        """The map's prepared ``find_clause`` (``None`` without a map)."""
        if route_map is None:
            return None
        key = (id(config), route_map.name)
        prepared = self._prepared.get(key)
        if prepared is None:
            prepared = route_map.prepare(config)
            self._prepared[key] = prepared
        return prepared.find_clause

    def _neighbor_policy(
        self, config: RouterConfig, neighbor_ip: Ipv4Address, direction: str
    ):
        assert config.bgp is not None
        neighbor = config.bgp.get_neighbor(neighbor_ip)
        if neighbor is None:
            return None
        name = (
            neighbor.export_policy if direction == "export" else neighbor.import_policy
        )
        if name is None:
            return None
        return config.get_route_map(name)


def rib_snapshots(simulation: BgpSimulation) -> Dict[str, Dict[Prefix, Tuple]]:
    """Comparable per-router RIB snapshots: every route attribute plus
    the provenance path.  This is the equality contract the
    differential tests and benches assert between incremental and
    from-scratch convergence — one definition, shared, so both always
    check the same notion of "identical"."""
    return {
        name: {
            prefix: (_entry_key(entry), entry.path)
            for prefix, entry in simulation.rib(name).items()
        }
        for name in sorted(simulation._configs)
    }


# -- planted regressions (fuzz-harness self-test) ------------------------------
#
# The differential fuzzer is only trustworthy if it can find bugs we
# already understand.  These hidden flags re-introduce a known,
# previously-shipped bug behind a switch the fuzzer's self-tests (and
# the hidden ``repro fuzz --plant`` CLI option) can flip; production
# code never sets them.

_PLANTED_BUGS: Set[str] = set()


def _in_cone(entry: RibEntry, dirty: Set[str]) -> bool:
    """Whether a warm entry depends on a changed router: its route
    traversed one (the incremental engine's dependency cone)."""
    return not dirty.isdisjoint(entry.path)


def _in_shallow_cone(entry: RibEntry, dirty: Set[str]) -> bool:
    """``_in_cone`` cut to one hop: only entries learned *directly* from
    a changed router are dropped, so an entry learned further
    downstream can survive its advertiser's withdrawal."""
    return entry.learned_from in dirty


_LIST_LOOKUPS = {
    MatchPrefixList: RouterConfig.get_prefix_list,
    MatchCommunityList: RouterConfig.get_community_list,
    MatchAsPathList: RouterConfig.get_as_path_list,
}


def _referenced_lists(config: RouterConfig, route_map) -> Tuple:
    """Every named list the map matches on, resolved in ``config``
    (``None`` where undefined), in clause order."""
    return tuple(
        _LIST_LOOKUPS[type(condition)](config, condition.name)
        for clause in route_map.clauses
        for condition in clause.matches
        if type(condition) in _LIST_LOOKUPS
    )


def _no_lists(config: RouterConfig, route_map) -> Tuple:
    """``_referenced_lists`` blind to every list: a list edit under an
    unchanged map looks like no change."""
    return ()


# planted bug -> (module function it rebinds, the buggy replacement)
_PLANTS = {
    "shallow-invalidation": ("_in_cone", _in_shallow_cone),
    "delta-ignores-lists": ("_referenced_lists", _no_lists),
}
_KNOWN_PLANTED_BUGS = frozenset(_PLANTS)
_SHIPPED = {name: globals()[name] for name, _bug in _PLANTS.values()}


def _plant_bug(name: str, enabled: bool = True) -> None:
    """Enable/disable a planted known bug by rebinding the module
    function it names in ``_PLANTS``; rebinding keeps the shipped path
    free of any planted-bug branch."""
    if name not in _KNOWN_PLANTED_BUGS:
        known = ", ".join(sorted(_KNOWN_PLANTED_BUGS))
        raise ValueError(f"unknown planted bug {name!r} (known: {known})")
    if enabled:
        _PLANTED_BUGS.add(name)
    else:
        _PLANTED_BUGS.discard(name)
    attribute, planted = _PLANTS[name]
    globals()[attribute] = planted if enabled else _SHIPPED[attribute]


def _planted_bugs() -> "frozenset[str]":
    return frozenset(_PLANTED_BUGS)


def _same_entry(left: RibEntry, right: RibEntry) -> bool:
    """Whether two entries are indistinguishable (a re-advertisement
    that changes nothing).  The cached decision key screens out most
    mismatches in one tuple compare (it covers provenance, local-pref,
    path length, and MED); only the attributes outside the decision
    process remain."""
    if left.decision_key != right.decision_key:
        return False
    a, b = left.route, right.route
    return (
        (a.as_path is b.as_path or a.as_path.asns == b.as_path.asns)
        and (a.communities is b.communities or a.communities == b.communities)
        and a.next_hop == b.next_hop
        and a.prefix == b.prefix
    )


def _entry_key(entry: RibEntry) -> Tuple:
    # Route attributes are interned (see repro.netmodel.route), so the
    # as-path tuple and community frozenset compare by pointer on the
    # hot same-entry check in _advertise — no per-comparison string
    # rendering or sorting.
    route = entry.route
    return (
        route.prefix,
        route.as_path.asns,
        route.communities,
        route.med,
        route.local_pref,
        str(route.next_hop),
        entry.learned_from,
        entry.origin_router,
    )


# -- incremental re-simulation -------------------------------------------------

_ENABLED = True

# Registry-backed simulation accounting.  The converge timers double as
# run counters: ``count`` is runs, ``total_s`` is accumulated wall-clock
# (the ``sim_totals`` view below re-exposes the historical key names).
_FULL_CONVERGE = timer("sim.full_converge")
_INCREMENTAL_CONVERGE = timer("sim.incremental_converge")
_FULL_EVALUATIONS = counter("sim.full_evaluations")
_INCREMENTAL_EVALUATIONS = counter("sim.incremental_evaluations")
_REUSED_ENTRIES = counter("sim.reused_entries")
_INVALIDATED_ENTRIES = counter("sim.invalidated_entries")


def set_incremental_simulation(enabled: bool) -> None:
    """Globally enable/disable incremental re-convergence.  When off,
    every :class:`SimulationState` request runs a full simulation, so
    incremental and full code paths can be compared without touching
    call sites (mirrors :func:`repro.symbolic.set_memoization`)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def incremental_simulation_enabled() -> bool:
    return _ENABLED


def reset_sim_stats() -> None:
    for instrument in (
        _FULL_CONVERGE,
        _INCREMENTAL_CONVERGE,
        _FULL_EVALUATIONS,
        _INCREMENTAL_EVALUATIONS,
        _REUSED_ENTRIES,
        _INVALIDATED_ENTRIES,
    ):
        instrument.reset()


def sim_totals() -> Dict[str, float]:
    """Process-wide simulation accounting (full vs incremental runs,
    route evaluations, wall-clock) for campaign reporting."""
    return {
        "full_runs": _FULL_CONVERGE.count,
        "incremental_runs": _INCREMENTAL_CONVERGE.count,
        "full_evaluations": _FULL_EVALUATIONS.value,
        "incremental_evaluations": _INCREMENTAL_EVALUATIONS.value,
        "full_time_s": _FULL_CONVERGE.total_s,
        "incremental_time_s": _INCREMENTAL_CONVERGE.total_s,
        "reused_entries": _REUSED_ENTRIES.value,
        "invalidated_entries": _INVALIDATED_ENTRIES.value,
    }


@dataclass(frozen=True)
class ResimStats:
    """What one :meth:`SimulationState.resimulate` call actually did."""

    mode: str  # "full" or "incremental"
    dirty_routers: int = 0  # routers whose config changed, of any class
    dirty_sessions: int = 0  # directed sessions re-advertised for policy
    invalidated_entries: int = 0
    reused_entries: int = 0  # entries carried over from the warm state
    evaluations: int = 0

    @property
    def incremental(self) -> bool:
        return self.mode == "incremental"


class ConfigDelta(NamedTuple):
    """What changed between a converged simulation's configs and new
    ones (see :func:`config_delta`)."""

    changed: Set[str]  # every router whose config differs
    dirty: Set[str]  # router-wide changes: invalidate the cone
    seeds: Set[Tuple[str, str]]  # directed sessions whose policy changed


def _sans_policy(config: RouterConfig) -> RouterConfig:
    """The config with its route maps, the lists they can match on and
    its neighbours' import/export policy names blanked out."""
    bgp = config.bgp and replace(
        config.bgp,
        neighbors={
            key: replace(neighbor, import_policy=None, export_policy=None)
            for key, neighbor in config.bgp.neighbors.items()
        },
    )
    return replace(
        config, bgp=bgp, route_maps={}, prefix_lists={},
        community_lists={}, as_path_lists={},
    )


def _effective_policy(
    config: RouterConfig, neighbor_ip: Ipv4Address, attribute: str
) -> Tuple:
    """One session end's policy, comparable by value: the policy name,
    the route map it resolves to, and every list that map matches on."""
    name = getattr(config.bgp.get_neighbor(neighbor_ip), attribute)
    route_map = config.get_route_map(name) if name is not None else None
    if route_map is None:
        return (name, None, ())
    return (name, route_map, _referenced_lists(config, route_map))


def config_delta(
    old: BgpSimulation, configs: Dict[str, RouterConfig]
) -> ConfigDelta:
    """Derive the delta between ``old``'s configs and ``configs``.

    Configs are read-only, so the very object simulated last time is
    unchanged; any other is compared by value (IR equality is
    structural).  A changed router whose edit is policy-only seeds the
    directed sessions out of it (export) and into it (import) whose
    effective policy differs; any other change, including a router
    appearing or disappearing, makes it router-wide dirty.
    """
    delta = ConfigDelta(set(), set(), set())
    for name in set(old._configs) | set(configs):
        before, after = old._configs.get(name), configs.get(name)
        if before is after or before == after:
            continue
        delta.changed.add(name)
        if None in (before, after) or _sans_policy(before) != _sans_policy(after):
            delta.dirty.add(name)
            continue
        for edges, end, attribute in (
            (old._out_edges, "remote_ip", "export_policy"),
            (old._in_edges, "local_ip", "import_policy"),
        ):
            for key in edges.get(name, ()):
                ip = getattr(old._directed[key], end)
                if _effective_policy(before, ip, attribute) != (
                    _effective_policy(after, ip, attribute)
                ):
                    delta.seeds.add(key)
    return delta


class SimulationState:
    """A warm, converged BGP simulation that re-converges incrementally.

    ``converge`` runs a full simulation; ``resimulate`` takes the new
    configs, derives what changed since the previous convergence
    (:func:`config_delta`) and re-propagates only that: the sessions
    whose policy changed, and the dependency cone of routers changed
    router-wide.  Callers name nothing, so a stale or shared state can
    never be steered by a wrong delta.  The state falls back to a full
    run when there is no prior state, when incremental simulation is
    globally disabled, or when the worklist fails to quiesce within its
    budget.  A simulation it hands out is never mutated by a later
    call.
    """

    def __init__(self, configs: Optional[Dict[str, RouterConfig]] = None) -> None:
        self._sim: Optional[BgpSimulation] = None
        self.last_stats: Optional[ResimStats] = None
        if configs is not None:
            self.converge(configs)

    @property
    def simulation(self) -> BgpSimulation:
        if self._sim is None:
            raise ValueError("SimulationState has no converged simulation yet")
        return self._sim

    def converge(self, configs: Dict[str, RouterConfig]) -> ResimStats:
        """Full from-scratch convergence; replaces any prior state."""
        started = time.perf_counter()
        with span("converge", mode="full", routers=len(configs)):
            sim = BgpSimulation(configs)
            sim.run()
        self._sim = sim
        _FULL_CONVERGE.observe(time.perf_counter() - started)
        _FULL_EVALUATIONS.inc(sim.evaluations)
        self.last_stats = ResimStats(mode="full", evaluations=sim.evaluations)
        return self.last_stats

    def resimulate(self, configs: Dict[str, RouterConfig]) -> ResimStats:
        """Re-converge ``configs``, re-propagating only what changed
        since the previous convergence."""
        if self._sim is None or not incremental_simulation_enabled():
            return self.converge(configs)
        started = time.perf_counter()
        with span("converge", mode="incremental", routers=len(configs)):
            return self._resimulate_incremental(
                configs, config_delta(self._sim, configs), started
            )

    def _resimulate_incremental(
        self,
        configs: Dict[str, RouterConfig],
        delta: ConfigDelta,
        started: float,
    ) -> ResimStats:
        old = self._sim
        dirty = set(delta.dirty)
        invalidated = 0
        reused = 0
        removed: Dict[str, Set[Prefix]] = {}
        if not dirty:
            new = old.successor(configs, delta.changed)
            reused = sum(len(rib) for rib in new._ribs.values())
        else:
            new = BgpSimulation(configs)
            # A session that appeared or disappeared dirties both
            # endpoints (covers address-ownership shifts between other
            # routers).
            old_ends, new_ends = (
                {
                    frozenset({(s.local_router, s.local_ip),
                               (s.remote_router, s.remote_ip)})
                    for s in sim._sessions
                }
                for sim in (old, new)
            )
            for ends in old_ends ^ new_ends:
                dirty.update(router for router, _ip in ends)
            for hostname in new._configs:
                if hostname in dirty:
                    continue
                target = new._ribs[hostname]
                for prefix, entry in old._ribs.get(hostname, {}).items():
                    if _in_cone(entry, dirty):
                        removed.setdefault(hostname, set()).add(prefix)
                        invalidated += 1
                    else:
                        target[prefix] = entry
                        reused += 1
        live_dirty = dirty & set(new._configs)
        for hostname in live_dirty:
            new._originate_router(hostname)
        # A session touching a dirty router re-advertises in full anyway.
        seeds = {key for key in delta.seeds if dirty.isdisjoint(key)}
        if new.run_worklist(live_dirty, removed, seeds) is None:
            return self.converge(configs)
        self._sim = new
        _INCREMENTAL_CONVERGE.observe(time.perf_counter() - started)
        _INCREMENTAL_EVALUATIONS.inc(new.evaluations)
        _REUSED_ENTRIES.inc(reused)
        _INVALIDATED_ENTRIES.inc(invalidated)
        self.last_stats = ResimStats(
            mode="incremental",
            dirty_routers=len(delta.changed),
            dirty_sessions=len(seeds),
            invalidated_entries=invalidated,
            reused_entries=reused,
            evaluations=new.evaluations,
        )
        return self.last_stats
