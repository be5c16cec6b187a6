"""The role-aware fault family: one home of a multi-homed ISP drops the
shared community.

The multi-homed no-transit argument is per-ISP, not per-border-router:
every home of ``ISP_j`` must tag with the same community slot.  The
``multihome_untagged_home`` fault breaks exactly one home's tagging —
the failure mode only a role assignment can address — and follows the
established dispatch contract: it exists only in catalogs of topologies
that actually have a multi-homed group, and injected anywhere without
its target it raises :class:`FaultTargetError` instead of no-opping.
"""

import pytest

from repro.cisco import generate_cisco
from repro.llm import (
    MULTIHOME_FAULT_KEY,
    fault_designations,
    multihome_fault_target,
    synthesis_fault_catalog,
)
from repro.llm.faults import DraftState, FaultTargetError
from repro.netmodel.routing_policy import Action
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs
from repro.topology.roles import RoleAssignment

SEEDED_FAMILIES = ["random", "waxman"]
SIZE = 8
ROLES = "c1i2h2"  # two ISPs, two homes each: multi-homed by construction


@pytest.fixture(scope="module", params=SEEDED_FAMILIES)
def multihomed_setup(request):
    network = generate_network(request.param, SIZE, seed=1, roles=ROLES)
    topology = network.topology
    return (
        request.param,
        topology,
        synthesis_fault_catalog(topology),
        fault_designations(topology),
        build_reference_configs(topology),
    )


class TestCatalogDispatch:
    def test_fault_present_only_with_a_multihomed_group(self, multihomed_setup):
        _, topology, catalog, _, _ = multihomed_setup
        assert MULTIHOME_FAULT_KEY in catalog
        roles = RoleAssignment.from_topology(topology)
        assert any(len(roles.groups.get(index, ())) > 1 for index in roles.indices())

    @pytest.mark.parametrize("family", ["star", "chain", "ring", "mesh"])
    def test_fault_absent_from_single_homed_catalogs(self, family):
        topology = generate_network(family, 6).topology
        assert MULTIHOME_FAULT_KEY not in synthesis_fault_catalog(topology)
        assert MULTIHOME_FAULT_KEY not in fault_designations(topology)
        assert multihome_fault_target(topology) is None

    def test_target_is_the_second_home(self, multihomed_setup):
        _, topology, _, designations, _ = multihomed_setup
        router, map_name, community = multihome_fault_target(topology)
        assert designations[MULTIHOME_FAULT_KEY] == router
        roles = RoleAssignment.from_topology(topology)
        index = next(
            index
            for index in roles.indices()
            if len(roles.groups.get(index, ())) > 1
        )
        group = roles.groups[index]
        assert router == group[1].router
        assert map_name == f"ADD_COMM_R{index}"
        assert str(community).endswith(":1")


class TestInjection:
    def test_fault_manifests_on_designated_router(self, multihomed_setup):
        family, topology, catalog, designations, references = multihomed_setup
        router = designations[MULTIHOME_FAULT_KEY]
        clean = DraftState(references[router], generate_cisco).render()
        draft = DraftState(references[router], generate_cisco)
        draft.inject(catalog[MULTIHOME_FAULT_KEY])
        corrupted = draft.render()
        assert corrupted != clean, (
            f"{MULTIHOME_FAULT_KEY} silently no-ops on {family} {router}"
        )

    def test_only_the_faulted_home_stops_tagging(self, multihomed_setup):
        """The sibling home keeps adding the shared community while the
        faulted home's ingress map permits untagged routes."""
        _, topology, catalog, _, references = multihomed_setup
        router, map_name, community = multihome_fault_target(topology)
        roles = RoleAssignment.from_topology(topology)
        index = next(
            i for i in roles.indices() if len(roles.groups.get(i, ())) > 1
        )
        sibling = roles.groups[index][0].router

        draft = DraftState(references[router], generate_cisco)
        draft.inject(catalog[MULTIHOME_FAULT_KEY])
        faulted = draft.current_config()
        from repro.symbolic import CandidateUniverse

        faulted_map = faulted.route_maps[map_name]
        universe = CandidateUniverse.for_policy(faulted, faulted_map)
        assert any(
            outcome.action is Action.PERMIT
            and community not in outcome.route.communities
            for outcome in (
                faulted_map.evaluate(route, faulted)
                for route in universe.cached_routes()
            )
        ), "the faulted home still tags everything it permits"

        sibling_map = references[sibling].route_maps[map_name]
        universe = CandidateUniverse.for_policy(references[sibling], sibling_map)
        for route in universe.cached_routes():
            outcome = sibling_map.evaluate(route, references[sibling])
            if outcome.action is Action.PERMIT:
                assert community in outcome.route.communities

    def test_misassigned_fault_raises_instead_of_noop(self, multihomed_setup):
        family, topology, catalog, designations, references = multihomed_setup
        designated = designations[MULTIHOME_FAULT_KEY]
        router, map_name, _ = multihome_fault_target(topology)
        roles = RoleAssignment.from_topology(topology)
        slot_routers = {
            attachment.router
            for index in roles.indices()
            for attachment in roles.groups[index]
            if f"ADD_COMM_R{index}" == map_name
        }
        victim = next(
            name
            for name in reversed(topology.router_names())
            if name != designated and name not in slot_routers
        )
        draft = DraftState(references[victim], generate_cisco)
        draft.inject(catalog[MULTIHOME_FAULT_KEY])
        with pytest.raises(FaultTargetError):
            draft.render()
