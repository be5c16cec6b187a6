"""End-to-end coverage for the chain/ring/mesh/dumbbell families.

Mirrors the star tests: every family's reference configs must render to
Cisco text that parses warning-free, satisfy the topology verifier, the
Lightyear-style local invariants, the composition argument, and the
global no-transit check — out of the box.
"""

import copy
import json

import pytest

from repro.cisco import generate_cisco, parse_cisco
from repro.lightyear import (
    check_composition,
    check_global_no_transit,
    no_transit_invariants,
    verify_invariants,
)
from repro.topology import (
    FAMILIES,
    generate_network,
    generate_star_network,
    is_hub_star,
    verify_topology,
)
from repro.topology.model import Topology
from repro.topology.reference import build_reference_configs

NON_STAR_FAMILIES = sorted(set(FAMILIES) - {"star"})


def _parsed_reference_configs(topology):
    """Render the references to text and parse them back, asserting the
    text is warning-free (the synthesis loop sees the same round trip).
    Parse results are shared and some tests edit these, so copy them."""
    parsed = {}
    for name, config in build_reference_configs(topology).items():
        result = parse_cisco(
            generate_cisco(config), filename=f"{name}.cfg", default_hostname=name
        )
        assert not result.warnings, [w.render() for w in result.warnings]
        parsed[name] = copy.deepcopy(result.config)
    return parsed


class TestGenerators:
    @pytest.mark.parametrize("family", NON_STAR_FAMILIES)
    def test_sizes_and_naming(self, family):
        network = generate_network(family, 6)
        assert network.family == family
        assert len(network.topology.routers) == 6
        assert network.topology.router_names() == [
            f"R{i}" for i in range(1, 7)
        ]
        assert network.topology.name == f"{family}-6"

    @pytest.mark.parametrize("family", NON_STAR_FAMILIES)
    def test_description_mentions_family(self, family):
        network = generate_network(family, 5)
        assert f"a {family} of 5 routers" in network.description

    def test_star_description_unchanged(self):
        star = generate_star_network(5)
        assert "a star of 5 routers" in star.description

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_size_bounds_enforced(self, family):
        with pytest.raises(ValueError):
            generate_network(family, 1)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate_network("torus", 5)

    @pytest.mark.parametrize("family", NON_STAR_FAMILIES)
    def test_json_export(self, family):
        topology = generate_network(family, 5).topology
        assert json.loads(topology.to_json()) == topology.to_dict()

    def test_expected_link_counts(self):
        assert len(generate_network("chain", 6).topology.links) == 5
        assert len(generate_network("ring", 6).topology.links) == 6
        assert len(generate_network("mesh", 6).topology.links) == 15
        assert len(generate_network("dumbbell", 6).topology.links) == 5

    def test_dumbbell_cores_have_no_isp(self):
        topology = generate_network("dumbbell", 6).topology
        isp_routers = {
            peer.router
            for peer in topology.externals
            if peer.peer_name != "CUSTOMER"
        }
        assert isp_routers == {"R3", "R4", "R5", "R6"}


class TestHubDetection:
    def test_star_is_hub_shaped(self):
        assert is_hub_star(generate_star_network(7).topology)

    @pytest.mark.parametrize("family", NON_STAR_FAMILIES)
    def test_other_families_are_not(self, family):
        assert not is_hub_star(generate_network(family, 5).topology)

    def test_empty_topology_is_not(self):
        assert not is_hub_star(Topology(name="empty"))


class TestReferenceSynthesis:
    """The acceptance bar: every family verifies locally and globally."""

    @pytest.mark.parametrize("family", NON_STAR_FAMILIES)
    @pytest.mark.parametrize("size", [4, 6])
    def test_reference_configs_verify_end_to_end(self, family, size):
        network = generate_network(family, size)
        topology = network.topology
        configs = _parsed_reference_configs(topology)
        for name, config in configs.items():
            issues = verify_topology(config, topology.router(name))
            assert not issues, [issue.message for issue in issues]
        invariants = no_transit_invariants(topology)
        assert invariants
        violations = verify_invariants(configs, invariants)
        assert not violations, [v.message for v in violations]
        composition = check_composition(invariants, configs, topology)
        assert composition.holds, composition.describe()
        global_check = check_global_no_transit(configs, topology)
        assert global_check.holds, global_check.describe()

    def test_broken_egress_filter_is_caught_globally(self):
        network = generate_network("chain", 5)
        configs = _parsed_reference_configs(network.topology)
        configs["R3"].bgp.get_neighbor("200.3.0.2").export_policy = None
        check = check_global_no_transit(configs, network.topology)
        assert not check.holds
        assert check.transit_violations

    def test_stripped_core_tagging_is_caught_globally(self):
        network = generate_network("ring", 5)
        configs = _parsed_reference_configs(network.topology)
        for clause in configs["R4"].route_maps["EXPORT_CORE_R4"].clauses:
            clause.sets = []
        check = check_global_no_transit(configs, network.topology)
        assert not check.holds
        assert check.transit_violations

    def test_missing_config_reported(self):
        network = generate_network("mesh", 4)
        configs = _parsed_reference_configs(network.topology)
        del configs["R3"]
        check = check_global_no_transit(configs, network.topology)
        assert not check.holds

    @pytest.mark.parametrize("family", NON_STAR_FAMILIES)
    def test_border_invariants_sit_on_isp_routers(self, family):
        topology = generate_network(family, 5).topology
        isp_routers = {
            peer.router
            for peer in topology.externals
            if peer.peer_name != "CUSTOMER"
        }
        invariants = no_transit_invariants(topology)
        assert {inv.router for inv in invariants} == isp_routers
