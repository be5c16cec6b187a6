"""CandidateUniverse memoization: accounting, and cached == uncached.

The caches may only ever change *speed* — every verdict must be
identical with memoization on, off, or warm, on every topology family.
"""

import pytest

from repro.lightyear import no_transit_invariants, verify_invariants
from repro.lightyear.verifier import _VERDICT_CACHE
from repro.llm import synthesis_fault_catalog, fault_designations
from repro.llm.faults import DraftState
from repro.cisco import generate_cisco, parse_cisco
from repro.symbolic import (
    CandidateUniverse,
    cache_totals,
    canonical_route_map_key,
    memoization_enabled,
    reset_caches,
    set_memoization,
)
from repro.symbolic.candidates import _ROUTES_CACHE
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs

FAMILIES = ["star", "chain", "ring", "mesh", "dumbbell"]


@pytest.fixture(autouse=True)
def clean_caches():
    reset_caches()
    yield
    set_memoization(True)
    reset_caches()


def _policy(family="chain", size=5, router="R2"):
    """R2's egress filter: matches community lists, so its canonical
    key must resolve list contents through the config."""
    topology = generate_network(family, size).topology
    config = build_reference_configs(topology)[router]
    name = next(
        name for name in sorted(config.route_maps)
        if name.startswith("FILTER_COMM_OUT")
    )
    return config, config.route_maps[name]


class TestCanonicalKey:
    def test_same_structure_same_key(self):
        config_a, map_a = _policy()
        config_b, map_b = _policy()
        assert canonical_route_map_key(config_a, map_a) == (
            canonical_route_map_key(config_b, map_b)
        )

    def test_structural_change_changes_key(self):
        config, route_map = _policy()
        before = canonical_route_map_key(config, route_map)
        route_map.clauses[0].seq += 1
        assert canonical_route_map_key(config, route_map) != before

    def test_referenced_list_contents_are_part_of_the_key(self):
        config, route_map = _policy()
        before = canonical_route_map_key(config, route_map)
        for community_list in config.community_lists.values():
            community_list.entries.clear()
        assert canonical_route_map_key(config, route_map) != before


class TestAccounting:
    def test_routes_cache_hits_on_repeat(self):
        config, route_map = _policy()
        universe = CandidateUniverse.for_policy(config, route_map)
        first = universe.cached_routes()
        again = CandidateUniverse.for_policy(config, route_map).cached_routes()
        assert first == again
        assert _ROUTES_CACHE.hits == 1 and _ROUTES_CACHE.misses == 1

    def test_verify_invariants_hits_verdict_cache_on_second_pass(self):
        topology = generate_network("mesh", 5).topology
        configs = build_reference_configs(topology)
        invariants = no_transit_invariants(topology)
        first = verify_invariants(configs, invariants)
        misses_after_first = _VERDICT_CACHE.misses
        second = verify_invariants(configs, invariants)
        assert second == first == []
        assert _VERDICT_CACHE.misses == misses_after_first
        assert _VERDICT_CACHE.hits >= len(invariants)

    def test_cache_totals_sums_hits_and_misses(self):
        config, route_map = _policy()
        CandidateUniverse.for_policy(config, route_map).cached_routes()
        CandidateUniverse.for_policy(config, route_map).cached_routes()
        hits, misses = cache_totals()
        assert hits >= 1 and misses >= 1

    def test_disabled_memoization_never_hits(self):
        set_memoization(False)
        assert not memoization_enabled()
        config, route_map = _policy()
        CandidateUniverse.for_policy(config, route_map).cached_routes()
        CandidateUniverse.for_policy(config, route_map).cached_routes()
        assert _ROUTES_CACHE.hits == 0
        assert len(_ROUTES_CACHE) == 0


class TestCachedEqualsUncached:
    """Regression: memoized and unmemoized checks agree on every family."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_reference_configs_verify_identically(self, family):
        topology = generate_network(family, 5).topology
        configs = build_reference_configs(topology)
        invariants = no_transit_invariants(topology)
        set_memoization(False)
        uncached = verify_invariants(configs, invariants)
        set_memoization(True)
        cold = verify_invariants(configs, invariants)
        warm = verify_invariants(configs, invariants)
        assert uncached == cold == warm == []

    @pytest.mark.parametrize("family", FAMILIES)
    def test_faulted_configs_verify_identically(self, family):
        topology = generate_network(family, 5).topology
        catalog = synthesis_fault_catalog(topology)
        router = fault_designations(topology)["egress_permits_tagged"]
        references = build_reference_configs(topology)
        draft = DraftState(references[router], generate_cisco)
        draft.inject(catalog["egress_permits_tagged"])
        faulted = parse_cisco(draft.render()).config
        configs = dict(references)
        configs[router] = faulted
        invariants = no_transit_invariants(topology)
        set_memoization(False)
        uncached = verify_invariants(configs, invariants)
        set_memoization(True)
        cached = verify_invariants(configs, invariants)
        warm = verify_invariants(configs, invariants)
        assert uncached, "the injected fault must violate an invariant"
        assert uncached == cached == warm
        assert any(router == violation.router for violation in uncached)
