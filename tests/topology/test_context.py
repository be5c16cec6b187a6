"""The topology context: one derivation per topology, read-only, shared
warm simulation states between equal topologies, and no verdict that
depends on whether it was memoized."""

import dataclasses
import json

import pytest

from repro.analysis import PolicyAnalyzer
from repro.core import Modularizer, toggles
from repro.experiments.campaign import build_grid, run_campaign, set_campaign_lint
from repro.lightyear import check_global_no_transit, no_transit_invariants
from repro.lightyear import compose
from repro.lightyear.compose import (
    check_composition,
    reset_simulation_states,
)
from repro.llm.synthesis_faults import fault_assignment, multihome_fault_target
from repro.symbolic.memo import reset_caches
from repro.topology import generate_network, generate_star_network
from repro.topology.context import topology_context
from repro.topology.reference import build_reference_configs
from repro.topology.roles import RoleAssignment


@pytest.fixture(autouse=True)
def _cold():
    reset_caches()
    reset_simulation_states()
    yield
    reset_caches()
    reset_simulation_states()


@pytest.fixture
def derivations(monkeypatch):
    """How many times ``RoleAssignment.from_topology`` runs."""
    calls = []
    original = RoleAssignment.from_topology.__func__

    def counted(cls, topology):
        calls.append(id(topology))
        return original(cls, topology)

    monkeypatch.setattr(RoleAssignment, "from_topology", classmethod(counted))
    return calls


@pytest.mark.parametrize(
    "topology",
    [
        generate_network("chain", 4).topology,
        generate_star_network(4).topology,
        generate_network("ring", 5).topology,
    ],
    ids=["chain", "star", "ring"],
)
def test_every_stage_reads_one_derivation(derivations, topology):
    configs = build_reference_configs(topology)
    invariants = no_transit_invariants(topology)
    modularizer = Modularizer(topology)
    for name in topology.router_names():
        modularizer.router_task_prompt(name)
        modularizer.local_invariants(name)
    check_composition(invariants, configs, topology)
    assert check_global_no_transit(configs, topology).holds
    PolicyAnalyzer(configs, topology=topology).analyze()
    fault_assignment(topology)
    multihome_fault_target(topology)
    topology_context(topology).prompts
    assert derivations == [id(topology)]


def test_equal_topologies_get_their_own_context_but_share_a_warm_state():
    first = generate_network("chain", 4).topology
    second = generate_network("chain", 4).topology
    assert first is not second and first == second
    context = topology_context(first)
    twin = topology_context(second)
    assert twin is not context
    assert twin.topology is second
    assert twin.key == context.key
    configs = build_reference_configs(first)
    assert not check_global_no_transit(configs, first).sim_stats.incremental
    verdict = check_global_no_transit(build_reference_configs(second), second)
    assert len(compose._CHECKERS) == 1
    assert verdict.sim_stats.incremental


def test_the_views_are_read_only():
    context = topology_context(generate_network("ring", 5).topology)
    with pytest.raises(dataclasses.FrozenInstanceError):
        context.hub_star = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        context.roles.customers = ()
    assert isinstance(context.invariants, tuple)
    assert isinstance(context.roles.customers, tuple)
    assert isinstance(context.customer_prefixes, tuple)
    assert isinstance(context.wanted, frozenset)
    for view in (
        context.roles.groups,
        context.invariants_of,
        context.prefixes_of,
        context.ingress_maps,
        context.egress_maps,
        context.prompts,
    ):
        assert view
        with pytest.raises(TypeError):
            view["R9"] = ()
    assert all(isinstance(group, tuple) for group in context.roles.groups.values())
    assert all(isinstance(items, tuple) for items in context.invariants_of.values())


def test_reset_caches_drops_the_context(derivations):
    topology = generate_network("chain", 4).topology
    context = topology_context(topology)
    assert topology_context(topology) is context
    reset_caches()
    assert topology_context(topology) is not context
    assert len(derivations) == 2


def test_memoization_off_derives_on_every_call(derivations):
    topology = generate_network("chain", 4).topology
    with toggles.scoped(memoization=False):
        first = topology_context(topology)
        second = topology_context(topology)
    assert first is not second
    assert first.invariants == second.invariants
    assert len(derivations) == 2


def test_linted_grid_summary_is_the_same_with_memoization_off():
    grid = build_grid(("star", "chain"), (4,), 1, profiles=("default", "sloppy"))
    set_campaign_lint(True)
    try:
        memoized = run_campaign(grid, workers=1)
        reset_caches()
        reset_simulation_states()
        with toggles.scoped(memoization=False):
            unmemoized = run_campaign(grid, workers=1)
    finally:
        set_campaign_lint(False)
    assert all(row.error is None for row in memoized.rows)
    assert json.dumps(memoized.to_dict(), indent=2) == json.dumps(
        unmemoized.to_dict(), indent=2
    )
