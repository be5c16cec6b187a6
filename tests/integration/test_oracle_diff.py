"""Differential property tests: every toggle combination == the baseline.

The two A/B toggles select genuinely different algorithms — incremental
vs full re-convergence, memoized vs recomputed symbolic questions — and
each combination must be observationally identical to the both-off
baseline on every topology family the repo can generate: RIBs
(attribute for attribute, provenance included), local-invariant
violations with their witness routes, and global no-transit verdicts
with per-role breakdowns, after every step of a fixed policy-edit
sequence.  The fuzzer checks the same contract on random scenarios;
this grid pins it on one deterministic cell of every family and on
roled and degree-placed variants.

Two more identities hold the single simulator datapath to its
references: prepared route-map evaluation (what ``_advertise`` binds
per session) agrees with the unprepared ``RouteMap.evaluate`` on every
installed route, and the worklist engine with every router dirty
reaches exactly the fixpoint of a full ``run()``.

The translation loop gets the memo oracle too: with memoization on and
off, every seed and behavior profile must yield the same prompts,
transcript, final draft and Table 2 rows.  So does a linted synthesis
campaign whose scenarios share networks, set-up and rendered drafts:
its summary must be identical with memoization on and off.
"""

import copy
import functools

import pytest

from repro.batfish.bgpsim import BgpSimulation, SimulationState, rib_snapshots
from repro.core import toggles
from repro.experiments.campaign import (
    PROFILES,
    build_grid,
    run_campaign,
    set_campaign_lint,
)
from repro.experiments.translation import run_translation_experiment
from repro.fuzz import BASELINE, all_combos, diff_observations, observe
from repro.fuzz.scenarios import FuzzEdit, FuzzScenario
from repro.lightyear import (
    check_composition,
    check_global_no_transit,
    no_transit_invariants,
    verify_invariants,
)
from repro.lightyear.compose import reset_simulation_states
from repro.netmodel.routing_policy import PolicyEvaluationError
from repro.symbolic.memo import cache_totals, reset_caches
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs

# All seven families; the seeded ones also in roled/multi-homed and
# degree-placed variants.
CELLS = [
    ("star", 7, {}),
    ("chain", 6, {}),
    ("ring", 6, {}),
    ("mesh", 6, {}),
    ("dumbbell", 6, {}),
    ("random", 8, {"seed": 1, "roles": "c2i2h2"}),
    ("random", 8, {"seed": 2, "roles": "c2i2h1", "place": "degree"}),
    ("waxman", 8, {"seed": 1, "roles": "c2i2h2"}),
    ("waxman", 8, {"seed": 3, "roles": "c1i3h1p1", "place": "degree"}),
    # perfbench's converge-scale waxman-22 network: without implicit
    # withdrawal a full run leaves stale entries here, so incremental
    # and full runs reach different fixpoints.
    ("waxman", 22, {"roles": "c2i3h2"}),
]

IDS = [
    f"{family}-{size}" + "".join(f"-{v}" for v in extra.values())
    for family, size, extra in CELLS
]

# One edit of every kind that changes routing or verdicts, spread over
# different routers: community rewriting, a multi-origin tie, a
# decision-affecting local-pref, no-transit holes (at two indices, so
# every cell gets one and a witness to compare), and a withdrawal.
EDITS = (
    FuzzEdit(3, "strip_additive"),
    FuzzEdit(2, "announce_shared_prefix"),
    FuzzEdit(4, "bump_local_pref"),
    FuzzEdit(0, "permit_all_egress"),
    FuzzEdit(3, "permit_all_egress"),
    FuzzEdit(5, "withdraw_network"),
)

COMBOS = [combo for combo in all_combos() if combo != BASELINE]

COMBO_IDS = [
    "+".join(name for name, enabled in combo.items() if enabled)
    for combo in COMBOS
]


@pytest.fixture(autouse=True)
def _cold_simulation_states():
    reset_simulation_states()
    yield
    reset_simulation_states()


def _scenario(family, size, extra):
    return FuzzScenario(
        family=family,
        size=size,
        topology_seed=extra.get("seed", 0),
        roles=extra.get("roles", "default"),
        place=extra.get("place", "default"),
        edits=EDITS,
    )


@functools.lru_cache(maxsize=None)
def _baseline(index):
    return observe(_scenario(*CELLS[index]), BASELINE)


def _network(family, size, extra):
    topology = generate_network(family, size, **extra).topology
    return topology, build_reference_configs(topology)


@pytest.mark.parametrize("combo", COMBOS, ids=COMBO_IDS)
@pytest.mark.parametrize("index", range(len(CELLS)), ids=IDS)
def test_combination_matches_baseline(index, combo):
    baseline = _baseline(index)
    assert len(baseline["steps"]) == len(EDITS) + 1
    assert baseline["steps"][-1]["violations"], "the edits must open a hole"
    assert diff_observations(baseline, observe(_scenario(*CELLS[index]), combo)) is None


@pytest.mark.parametrize("family,size,extra", CELLS, ids=IDS)
class TestOracleIdentities:
    def test_memo_hits_and_agrees_with_recompute(self, family, size, extra):
        """A repeated verification pass must actually hit the memo, and
        memoized answers must equal recomputed ones."""
        topology, configs = _network(family, size, extra)
        invariants = no_transit_invariants(topology)
        outcomes = {}
        traffic = {}
        for enabled in (True, False):
            with toggles.scoped(memoization=enabled):
                reset_caches()
                reset_simulation_states()
                passes = []
                for _ in range(2):
                    violations = verify_invariants(copy.deepcopy(configs), invariants)
                    composition = check_composition(
                        invariants, copy.deepcopy(configs), topology
                    )
                    check = check_global_no_transit(copy.deepcopy(configs), topology)
                    passes.append(
                        (
                            [(v.router, v.message, v.witness) for v in violations],
                            composition.holds,
                            check.holds,
                            dict(check.role_verdicts),
                        )
                    )
                traffic[enabled] = cache_totals()
            assert passes[0] == passes[1]
            outcomes[enabled] = passes[0]
        assert outcomes[True] == outcomes[False]
        memo_hits, memo_misses = traffic[True]
        off_hits, off_misses = traffic[False]
        assert memo_hits > 0
        assert off_hits == 0
        # Every memoized lookup is a miss with the memo off, and a hit
        # no longer short-circuits the nested lookups under it.
        assert off_misses >= memo_hits + memo_misses

    def test_prepared_evaluation_matches_route_map(self, family, size, extra):
        """Every route map, prepared on its router, decides every
        installed route exactly as ``RouteMap.evaluate`` does."""
        _topology, configs = _network(family, size, extra)
        sim = BgpSimulation(copy.deepcopy(configs))
        sim.run()
        routes = {
            entry.route: None
            for name in sorted(configs)
            for entry in sim.rib(name).values()
        }
        compared = 0
        for name in sorted(configs):
            config = configs[name]
            for map_name in sorted(config.route_maps):
                route_map = config.route_maps[map_name]
                prepared = route_map.prepare(config)
                for route in routes:
                    try:
                        expected = route_map.evaluate(route, config)
                    except PolicyEvaluationError as exc:
                        with pytest.raises(PolicyEvaluationError) as raised:
                            prepared.evaluate(route)
                        assert str(raised.value) == str(exc)
                        continue
                    assert prepared.evaluate(route) == expected
                    compared += 1
        assert compared > 0

    def test_all_dirty_worklist_reaches_the_full_fixpoint(
        self, family, size, extra
    ):
        """Incremental re-convergence with every router changed runs
        the worklist from freshly originated RIBs only, and must land
        on the same RIBs as a full ``run()``."""
        _topology, configs = _network(family, size, extra)
        state = SimulationState(copy.deepcopy(configs))
        state.resimulate(copy.deepcopy(configs), set(configs))
        stats = state.last_stats
        assert stats.mode == "incremental"
        assert stats.dirty_routers == len(configs)
        assert stats.reused_entries == 0
        full = BgpSimulation(copy.deepcopy(configs))
        full.run()
        assert rib_snapshots(state.simulation) == rib_snapshots(full)


@pytest.mark.parametrize("profile", ["default", "sloppy"])
@pytest.mark.parametrize("seed", range(10))
def test_translation_loop_is_identical_with_and_without_memoization(seed, profile):
    """The translation loop (shared parse results and memoized Campion
    reports) must drive the model down exactly the path it takes when
    every parse and compare is recomputed."""
    runs = {}
    for enabled in (False, True):
        with toggles.scoped(memoization=enabled):
            experiment = run_translation_experiment(
                seed=seed, profile=PROFILES[profile]
            )
        result = experiment.result
        runs[enabled] = (
            result.verified,
            result.prompt_log,
            result.transcript,
            result.final_text,
            experiment.table2_rows(),
        )
    assert runs[True] == runs[False]


def test_linted_campaign_over_shared_networks_is_identical_without_memoization():
    """Scenarios of one cell share a network, its reference configs and
    catalog, and the drafts rendered from them; the summary must not
    depend on that sharing."""
    grid = build_grid(
        ("star", "ring"), (6,), 2, profiles=("default", "sloppy")
    ) + build_grid(("random",), (8,), 1, roles=("c2i2h2",))
    summaries = {}
    set_campaign_lint(True)
    try:
        for enabled in (False, True):
            reset_caches()
            with toggles.scoped(memoization=enabled):
                summaries[enabled] = run_campaign(grid, workers=1).to_dict()
    finally:
        set_campaign_lint(False)
        reset_caches()
    assert summaries[True]["errors"] == 0
    assert summaries[True]["lint"]["scenarios"] == len(grid)
    assert summaries[True] == summaries[False]
