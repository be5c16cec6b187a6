"""Incremental BGP re-simulation: differential proofs against full runs.

The contract under test: a :class:`SimulationState` that derives the
delta from the configs it is given converges to *exactly* the state a
from-scratch :class:`BgpSimulation` reaches on the same configs — same
RIBs (routes, attributes, provenance paths) and same global-check
verdicts — on every topology family, for randomized single-router
config edits.
"""

import copy
import random
import zlib

import pytest

from repro.batfish import bgpsim
from repro.batfish.bgpsim import (
    BgpSimulation,
    SimulationState,
    config_delta,
    incremental_simulation_enabled,
    reset_sim_stats,
    rib_snapshots,
    set_incremental_simulation,
    sim_totals,
)
from repro.fuzz.edits import (
    bump_local_pref,
    drop_core_list_entry,
    withdraw_network,
)
from repro.lightyear.compose import (
    IncrementalGlobalChecker,
    check_global_no_transit,
    last_global_sim_stats,
    reset_simulation_states,
)
from repro.netmodel.ip import Prefix
from repro.netmodel.routing_policy import (
    Action,
    RouteMap,
    RouteMapClause,
    SetCommunity,
)
from repro.topology.families import FAMILIES, generate_network
from repro.topology.reference import build_reference_configs

SIZE = 6


@pytest.fixture(autouse=True)
def _fresh_simulation_state():
    reset_simulation_states()
    set_incremental_simulation(True)
    yield
    reset_simulation_states()
    set_incremental_simulation(True)


def _network(family, size=SIZE):
    net = generate_network(family, size)
    return net.topology, build_reference_configs(net.topology)


def _assert_matches_full(state, configs, topology=None):
    """The warm state must equal a from-scratch run, RIBs and verdicts."""
    full = BgpSimulation(copy.deepcopy(configs))
    full.run()
    assert rib_snapshots(state.simulation) == rib_snapshots(full)
    if topology is not None:
        reset_simulation_states()  # force the check below to run cold
        cold = check_global_no_transit(copy.deepcopy(configs), topology)
        warm = _check_from_simulation(state, configs, topology)
        assert warm.holds == cold.holds
        assert warm.describe() == cold.describe()


def _check_from_simulation(state, configs, topology):
    """Run the global check against the *warm* state's simulation.

    The configs equal the ones the state converged, so the derived
    delta is empty and the verdict really is computed from the
    incrementally-converged RIBs (a cold checker would run a fresh full
    convergence and prove nothing)."""
    checker = IncrementalGlobalChecker()
    checker._state = state
    verdict = check_global_no_transit(configs, topology, checker=checker)
    assert checker.last_stats.incremental
    return verdict


# -- randomized single-router edits -------------------------------------------


def _replace_filter_with_permit_all(config, rng):
    names = [n for n in config.route_maps if n.startswith("FILTER_COMM_OUT_")]
    if not names:
        return False
    name = rng.choice(names)
    replacement = RouteMap(name)
    replacement.add_clause(RouteMapClause(seq=10, action=Action.PERMIT))
    config.route_maps[name] = replacement
    return True


def _drop_first_deny(config, rng):
    names = [n for n in config.route_maps if n.startswith("FILTER_COMM_OUT_")]
    for name in rng.sample(names, k=len(names)):
        route_map = config.route_maps[name]
        denies = [c for c in route_map.clauses if c.action is Action.DENY]
        if denies:
            route_map.clauses.remove(denies[0])
            return True
    return False


def _make_ingress_non_additive(config, rng):
    names = [n for n in config.route_maps if n.startswith("ADD_COMM_")]
    for name in rng.sample(names, k=len(names)):
        for clause in config.route_maps[name].clauses:
            for index, action in enumerate(clause.sets):
                if isinstance(action, SetCommunity) and action.additive:
                    clause.sets[index] = SetCommunity(
                        action.communities, additive=False
                    )
                    return True
    return False


def _detach_export_policy(config, rng):
    if config.bgp is None:
        return False
    attached = [
        n for n in config.bgp.neighbors.values() if n.export_policy is not None
    ]
    if not attached:
        return False
    rng.choice(attached).export_policy = None
    return True


def _announce_extra_network(config, rng):
    if config.bgp is None:
        return False
    bogus = Prefix.parse(f"203.0.{rng.randrange(1, 250)}.0/24")
    if bogus in config.bgp.networks:
        return False
    config.bgp.announce(bogus)
    return True


def _drop_a_neighbor(config, rng):
    """Removes one BGP session entirely (topology-affecting edit)."""
    if config.bgp is None or len(config.bgp.neighbors) < 2:
        return False
    ip = rng.choice(sorted(config.bgp.neighbors, key=str))
    config.bgp.remove_neighbor(ip)
    return True


MUTATIONS = [
    _replace_filter_with_permit_all,
    _drop_first_deny,
    _make_ingress_non_additive,
    _detach_export_policy,
    _announce_extra_network,
    _drop_a_neighbor,
]


class TestDifferentialPerFamily:
    """Randomized single-router edits: incremental == full, always."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_edit_sequence_matches_from_scratch(self, family, seed):
        topology, reference = _network(family)
        rng = random.Random(zlib.crc32(f"{family}:{seed}".encode()))
        current = copy.deepcopy(reference)
        state = SimulationState(copy.deepcopy(current))
        incremental_seen = 0
        for _step in range(6):
            nxt = copy.deepcopy(current)
            router = rng.choice(sorted(nxt))
            mutation = rng.choice(MUTATIONS)
            if not mutation(nxt[router], rng):
                _announce_extra_network(nxt[router], rng)
            stats = state.resimulate(copy.deepcopy(nxt))
            incremental_seen += stats.incremental
            _assert_matches_full(state, nxt, topology)
            current = nxt
        assert incremental_seen == 6  # never silently fell back

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_revert_to_reference_matches(self, family):
        """Edit a router, then restore it: back to the reference state."""
        topology, reference = _network(family)
        rng = random.Random(7)
        state = SimulationState(copy.deepcopy(reference))
        broken = copy.deepcopy(reference)
        router = sorted(broken)[2]
        _replace_filter_with_permit_all(broken[router], rng) or (
            _announce_extra_network(broken[router], rng)
        )
        state.resimulate(copy.deepcopy(broken))
        _assert_matches_full(state, broken, topology)
        restored = copy.deepcopy(reference)
        stats = state.resimulate(copy.deepcopy(restored))
        assert stats.incremental
        _assert_matches_full(state, restored, topology)


class TestSimulationState:
    def test_no_change_resimulation_is_cheap_and_identical(self):
        _topology, configs = _network("mesh")
        state = SimulationState(copy.deepcopy(configs))
        stats = state.resimulate(copy.deepcopy(configs))
        assert stats.incremental
        assert stats.evaluations == 0
        assert stats.reused_entries > 0
        _assert_matches_full(state, configs)

    def test_disabled_toggle_forces_full_run(self):
        _topology, configs = _network("chain")
        state = SimulationState(copy.deepcopy(configs))
        set_incremental_simulation(False)
        try:
            assert not incremental_simulation_enabled()
            stats = state.resimulate(copy.deepcopy(configs))
            assert stats.mode == "full"
        finally:
            set_incremental_simulation(True)

    def test_router_removal_and_return(self):
        topology, configs = _network("mesh")
        state = SimulationState(copy.deepcopy(configs))
        without = {
            name: copy.deepcopy(config)
            for name, config in configs.items()
            if name != "R4"
        }
        stats = state.resimulate(copy.deepcopy(without))
        assert stats.incremental  # removal derived from the configs
        _assert_matches_full(state, without)
        stats = state.resimulate(copy.deepcopy(configs))
        assert stats.incremental
        _assert_matches_full(state, configs, topology)

    def test_state_before_convergence_raises(self):
        with pytest.raises(ValueError, match="no converged simulation"):
            SimulationState().simulation

    def test_stats_accounting(self):
        reset_sim_stats()
        _topology, configs = _network("star")
        state = SimulationState(copy.deepcopy(configs))
        state.resimulate(copy.deepcopy(configs))
        totals = sim_totals()
        assert totals["full_runs"] == 1
        assert totals["incremental_runs"] == 1
        assert totals["full_evaluations"] > 0


class TestDerivedDeltas:
    """The delta is derived from the configs; a caller names nothing."""

    def test_changed_router_is_counted_whatever_its_class(self):
        topology, configs = _network("mesh")
        checker = IncrementalGlobalChecker()
        checker.simulate(copy.deepcopy(configs))
        rng = random.Random(5)
        broken = copy.deepcopy(configs)
        assert _replace_filter_with_permit_all(broken["R3"], rng)
        checker.simulate(copy.deepcopy(broken))
        assert checker.last_stats.incremental
        assert checker.last_stats.dirty_routers == 1

    def test_derived_delta_matches_cold_verdict(self):
        topology, configs = _network("chain")
        checker = IncrementalGlobalChecker()
        check_global_no_transit(
            copy.deepcopy(configs), topology, checker=checker
        )
        rng = random.Random(2)
        edited = copy.deepcopy(configs)
        assert _drop_first_deny(edited["R3"], rng)
        warm = check_global_no_transit(
            copy.deepcopy(edited), topology, checker=checker
        )
        assert checker.last_stats.incremental
        reset_simulation_states()
        cold = check_global_no_transit(copy.deepcopy(edited), topology)
        assert warm.holds == cold.holds
        assert warm.describe() == cold.describe()

    @pytest.mark.parametrize("named", [set(), {"R1"}])
    def test_stale_changed_routers_are_ignored(self, named):
        """``check_global_no_transit`` still accepts ``changed_routers``
        and ignores it: a stale or empty set cannot steer the checker
        away from the full-run RIBs and verdict."""
        topology, configs = _network("ring")
        checker = IncrementalGlobalChecker()
        check_global_no_transit(
            copy.deepcopy(configs), topology, checker=checker
        )
        rng = random.Random(9)
        edited = copy.deepcopy(configs)
        assert _replace_filter_with_permit_all(edited["R4"], rng)
        assert _announce_extra_network(edited["R2"], rng)
        warm = check_global_no_transit(
            copy.deepcopy(edited), topology,
            checker=checker, changed_routers=named,
        )
        assert checker.last_stats.incremental
        assert checker.last_stats.dirty_routers == 2
        _assert_matches_full(checker._state, edited)
        reset_simulation_states()
        cold = check_global_no_transit(copy.deepcopy(edited), topology)
        assert warm.holds == cold.holds
        assert warm.describe() == cold.describe()

    def test_registry_ignores_explicit_deltas(self):
        """The process-local registry is shared state: a caller's
        private delta must not steer it (a wrong delta would corrupt
        every later caller's verdicts)."""
        topology, configs = _network("star")
        check_global_no_transit(copy.deepcopy(configs), topology)
        rng = random.Random(4)
        edited = copy.deepcopy(configs)
        _announce_extra_network(edited["R2"], rng)
        # Lie about the delta: claim nothing changed.  The registry
        # derives the delta anyway and still finds R2.
        check_global_no_transit(
            copy.deepcopy(edited), topology, changed_routers=set()
        )
        stats = last_global_sim_stats()
        assert stats.incremental
        assert stats.dirty_routers == 1


class TestDeltaScopedReconvergence:
    """A policy-only edit re-advertises just the sessions whose policy
    changed; anything else stays router-wide."""

    def _state(self, family="mesh"):
        topology, configs = _network(family)
        return topology, configs, SimulationState(copy.deepcopy(configs))

    def test_external_only_export_edit_takes_no_evaluations(self):
        topology, configs, state = self._state()
        broken = copy.deepcopy(configs)
        for neighbor in broken["R3"].bgp.neighbors.values():
            if (neighbor.export_policy or "").startswith("FILTER_COMM_OUT_"):
                neighbor.export_policy = None
        stats = state.resimulate(copy.deepcopy(broken))
        assert stats.incremental
        assert stats.dirty_routers == 1
        assert stats.dirty_sessions == 0
        assert stats.invalidated_entries == 0
        assert stats.evaluations == 0
        _assert_matches_full(state, broken, topology)

    def test_core_list_edit_seeds_only_that_routers_exports(self):
        """Dropping a prefix-list entry under an unchanged core export
        map changes every internal session out of the router, and no
        other session."""
        topology, configs, state = self._state()
        edited = copy.deepcopy(configs)
        assert drop_core_list_entry(edited, "R3")
        delta = config_delta(state.simulation, edited)
        out_edges = state.simulation._out_edges["R3"]
        assert delta.changed == {"R3"}
        assert delta.dirty == frozenset()
        assert delta.seeds == set(out_edges)
        stats = state.resimulate(copy.deepcopy(edited))
        assert stats.dirty_sessions == len(out_edges)
        assert stats.invalidated_entries == 0
        assert stats.evaluations > 0
        _assert_matches_full(state, edited, topology)

    def test_import_policy_edit_seeds_the_session_into_the_router(self):
        topology, configs, state = self._state()
        edited = copy.deepcopy(configs)
        assert bump_local_pref(edited, "R2")  # a decision-affecting map
        session = state.simulation._in_edges["R2"][0]
        ip = state.simulation._directed[session].local_ip
        edited["R2"].bgp.get_neighbor(ip).import_policy = sorted(
            edited["R2"].route_maps
        )[0]
        delta = config_delta(state.simulation, edited)
        assert delta.dirty == frozenset()
        assert session in delta.seeds
        stats = state.resimulate(copy.deepcopy(edited))
        assert stats.incremental
        _assert_matches_full(state, edited, topology)

    def test_equal_copies_are_no_delta(self):
        _topology, configs, state = self._state()
        delta = config_delta(state.simulation, copy.deepcopy(configs))
        assert delta == (frozenset(), frozenset(), frozenset())

    def test_withdraw_network_goes_through_the_cone(self, monkeypatch):
        """Originated networks stay a router-wide change: a withdrawal
        invalidates its dependency cone through ``_in_cone``."""
        topology, configs, state = self._state()
        calls = []
        shipped = bgpsim._in_cone

        def spy(entry, dirty):
            calls.append(entry)
            return shipped(entry, dirty)

        monkeypatch.setattr(bgpsim, "_in_cone", spy)
        edited = copy.deepcopy(configs)
        assert withdraw_network(edited, "R3")
        assert config_delta(state.simulation, edited).dirty == {"R3"}
        stats = state.resimulate(copy.deepcopy(edited))
        assert calls
        assert stats.invalidated_entries > 0
        _assert_matches_full(state, edited, topology)

    @pytest.mark.parametrize("edit", [drop_core_list_entry, withdraw_network])
    def test_earlier_simulation_is_never_mutated(self, edit):
        _topology, configs, state = self._state()
        earlier = state.simulation
        before = rib_snapshots(earlier)
        edited = copy.deepcopy(configs)
        assert edit(edited, "R3")
        state.resimulate(copy.deepcopy(edited))
        assert state.simulation is not earlier
        assert rib_snapshots(earlier) == before
        fresh = BgpSimulation(copy.deepcopy(configs))
        fresh.run()
        assert before == rib_snapshots(fresh)


class TestRoledDifferential:
    """The differential contract extends to role-assigned networks:
    multi-homed ISPs and multiple customers (the FAMILIES-parametrized
    tests above already cover random/waxman under their default
    single-homed role layout)."""

    @pytest.mark.parametrize("family", ["random", "waxman"])
    @pytest.mark.parametrize("roles", ["c2i2h2", "c1i2h1p1"])
    def test_edit_sequence_matches_from_scratch(self, family, roles):
        net = generate_network(family, 9, seed=3, roles=roles)
        topology = net.topology
        reference = build_reference_configs(topology)
        rng = random.Random(zlib.crc32(f"{family}:{roles}".encode()))
        current = copy.deepcopy(reference)
        state = SimulationState(copy.deepcopy(current))
        for _step in range(4):
            nxt = copy.deepcopy(current)
            router = rng.choice(sorted(nxt))
            mutation = rng.choice(MUTATIONS)
            if not mutation(nxt[router], rng):
                _announce_extra_network(nxt[router], rng)
            stats = state.resimulate(copy.deepcopy(nxt))
            assert stats.incremental
            _assert_matches_full(state, nxt, topology)
            current = nxt


class TestBatchedEvaluation:
    """Per-session prepared (batched) policy evaluation must behave
    exactly like route-by-route evaluation."""

    def test_undefined_list_behaves_lazily_like_evaluate(self):
        """A clause referencing an undefined list must only reject the
        routes that actually consult it — batch preparation must not
        turn the lazy per-route error into an eager one."""
        from repro.netmodel.ip import Prefix
        from repro.netmodel.route import Route
        from repro.netmodel.routing_policy import (
            MatchCommunityList,
            MatchPrefixList,
            PolicyEvaluationError,
            RouteMap,
            RouteMapClause,
        )
        from repro.netmodel.device import RouterConfig, Vendor
        from repro.netmodel.prefixlist import PrefixList
        from repro.netmodel.ip import PrefixRange

        config = RouterConfig(hostname="X", vendor=Vendor.CISCO)
        narrow = PrefixList("NARROW")
        narrow.add("permit", PrefixRange.exact(Prefix.parse("10.0.0.0/24")))
        config.add_prefix_list(narrow)
        route_map = RouteMap("MIXED")
        guarded = RouteMapClause(seq=10, action=Action.DENY)
        guarded.matches.append(MatchPrefixList("NARROW"))
        guarded.matches.append(MatchCommunityList("UNDEFINED"))
        route_map.add_clause(guarded)
        route_map.add_clause(RouteMapClause(seq=20, action=Action.PERMIT))
        misses = Route(prefix=Prefix.parse("99.0.0.0/24"))
        hits = Route(prefix=Prefix.parse("10.0.0.0/24"))
        prepared = route_map.prepare(config)
        assert prepared.evaluate(misses).action is Action.PERMIT
        with pytest.raises(PolicyEvaluationError):
            prepared.evaluate(hits)
        # identical to the per-route path
        assert route_map.evaluate(misses, config).action is Action.PERMIT
        with pytest.raises(PolicyEvaluationError):
            route_map.evaluate(hits, config)


class TestWarmGlobalCheck:
    """check_global_no_transit reuses warm state per topology."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_repeat_check_goes_incremental_with_same_verdict(self, family):
        topology, configs = _network(family)
        first = check_global_no_transit(copy.deepcopy(configs), topology)
        assert last_global_sim_stats().mode == "full"
        second = check_global_no_transit(copy.deepcopy(configs), topology)
        assert last_global_sim_stats().incremental
        assert last_global_sim_stats().dirty_routers == 0
        assert second.holds == first.holds
        assert second.describe() == first.describe()

    def test_changed_router_is_detected_from_the_configs(self):
        topology, configs = _network("mesh")
        good = check_global_no_transit(copy.deepcopy(configs), topology)
        assert good.holds
        rng = random.Random(3)
        broken = copy.deepcopy(configs)
        assert _replace_filter_with_permit_all(broken["R3"], rng)
        verdict = check_global_no_transit(broken, topology)
        stats = last_global_sim_stats()
        assert stats.incremental
        assert stats.dirty_routers == 1
        assert not verdict.holds
        reset_simulation_states()
        cold = check_global_no_transit(copy.deepcopy(broken), topology)
        assert cold.describe() == verdict.describe()

    def test_disabled_incremental_still_checks_correctly(self):
        topology, configs = _network("ring")
        warm = check_global_no_transit(copy.deepcopy(configs), topology)
        set_incremental_simulation(False)
        try:
            cold = check_global_no_transit(copy.deepcopy(configs), topology)
            assert last_global_sim_stats().mode == "full"
        finally:
            set_incremental_simulation(True)
        assert cold.holds == warm.holds

    def test_explicit_checker_is_reused_across_rounds(self):
        topology, configs = _network("chain")
        checker = IncrementalGlobalChecker()
        check_global_no_transit(copy.deepcopy(configs), topology, checker=checker)
        assert checker.last_stats.mode == "full"
        check_global_no_transit(copy.deepcopy(configs), topology, checker=checker)
        assert checker.last_stats.incremental
