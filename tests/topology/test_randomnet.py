"""Seeded random/Waxman generators: determinism, connectivity, knobs.

The contract: byte-identical topology JSON per (family, size, seed,
knobs, roles), a connected internal graph no matter how sparse the
sample, and loud rejection of malformed knobs or oversized role specs.
"""

import pytest

from repro.topology import generate_network
from repro.topology.families import FAMILIES, SEEDED_FAMILIES
from repro.topology.randomnet import (
    generate_random_network,
    generate_waxman_network,
    parse_topo_params,
)
from repro.topology.roles import RoleSpec

SEEDED = sorted(SEEDED_FAMILIES)


class TestRegistration:
    def test_random_and_waxman_are_families(self):
        assert "random" in FAMILIES
        assert "waxman" in FAMILIES

    @pytest.mark.parametrize("family", SEEDED)
    def test_default_generation_names_and_sizes(self, family):
        network = generate_network(family, 6)
        assert network.family == family
        assert len(network.topology.routers) == 6
        assert network.topology.name == f"{family}-6"
        assert network.seed == 0
        assert network.roles == RoleSpec.default_for(6).key()


class TestDeterminism:
    @pytest.mark.parametrize("family", SEEDED)
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_same_seed_same_graph_bytes(self, family, seed):
        first = generate_network(family, 9, seed=seed, roles="c2i2h2")
        second = generate_network(family, 9, seed=seed, roles="c2i2h2")
        assert first.topology.to_json() == second.topology.to_json()
        assert first.description == second.description

    @pytest.mark.parametrize("family", SEEDED)
    def test_different_seeds_differ(self, family):
        jsons = {
            generate_network(family, 10, seed=seed).topology.to_json()
            for seed in range(6)
        }
        assert len(jsons) > 1  # at least some seeds produce new graphs

    @pytest.mark.parametrize("family", SEEDED)
    def test_knobs_change_the_graph(self, family):
        dense = {"random": "p=0.9", "waxman": "alpha=2.0,beta=0.95"}[family]
        sparse = {"random": "p=0.05", "waxman": "alpha=0.05,beta=0.1"}[family]
        a = generate_network(family, 12, seed=3, params=dense).topology
        b = generate_network(family, 12, seed=3, params=sparse).topology
        assert len(a.links) > len(b.links)


class TestConnectivity:
    @pytest.mark.parametrize("family", SEEDED)
    @pytest.mark.parametrize("seed", range(8))
    def test_always_connected_even_when_sparse(self, family, seed):
        sparse = {"random": "p=0.02", "waxman": "alpha=0.05,beta=0.05"}[family]
        topology = generate_network(
            family, 10, seed=seed, params=sparse
        ).topology
        adjacency = {name: set() for name in topology.routers}
        for link in topology.links:
            adjacency[link.router_a].add(link.router_b)
            adjacency[link.router_b].add(link.router_a)
        frontier = ["R1"]
        reached = {"R1"}
        while frontier:
            for neighbor in adjacency[frontier.pop()]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    frontier.append(neighbor)
        assert reached == set(topology.routers)


class TestRolePlacement:
    @pytest.mark.parametrize("family", SEEDED)
    def test_spec_is_honored(self, family):
        topology = generate_network(
            family, 9, seed=2, roles="c2i2h2p1"
        ).topology
        names = [peer.peer_name for peer in topology.externals]
        assert names.count("CUSTOMER") == 1
        assert names.count("CUSTOMER_2") == 1
        assert names.count("ISP_2") == 2  # two homes
        assert names.count("ISP_3") == 2
        assert names.count("PEER_4") == 1
        # every attachment on its own router
        routers = [peer.router for peer in topology.externals]
        assert len(routers) == len(set(routers))

    def test_multi_homed_subnets_are_distinct(self):
        topology = generate_network(
            "random", 8, seed=0, roles="c1i1h2"
        ).topology
        homes = [p for p in topology.externals if p.peer_name == "ISP_2"]
        assert len(homes) == 2
        assert homes[0].peer_ip != homes[1].peer_ip
        assert homes[0].peer_asn == homes[1].peer_asn  # one AS, two homes

    def test_oversized_spec_rejected(self):
        with pytest.raises(ValueError, match="border routers"):
            generate_network("random", 4, roles="c2i3h2")

    @pytest.mark.parametrize("family", SEEDED)
    def test_size_bounds_enforced(self, family):
        with pytest.raises(ValueError):
            generate_network(family, 1)


class TestKnobs:
    def test_parse_topo_params(self):
        assert parse_topo_params(None) == {}
        assert parse_topo_params("default") == {}
        assert parse_topo_params("p=0.4") == {"p": 0.4}
        assert parse_topo_params("alpha=0.5,beta=0.7") == {
            "alpha": 0.5, "beta": 0.7,
        }
        assert parse_topo_params({"p": "0.3"}) == {"p": 0.3}

    def test_malformed_knobs_rejected(self):
        with pytest.raises(ValueError, match="name=value"):
            parse_topo_params("p0.4")
        with pytest.raises(ValueError, match="knob value"):
            parse_topo_params("p=high")

    def test_unknown_knob_rejected_per_family(self):
        with pytest.raises(ValueError, match="unknown random knob"):
            generate_random_network(6, params="alpha=0.5")
        with pytest.raises(ValueError, match="unknown waxman knob"):
            generate_waxman_network(6, params="p=0.5")

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="edge probability"):
            generate_random_network(6, params="p=1.5")
        with pytest.raises(ValueError, match="alpha must be positive"):
            generate_waxman_network(6, params="alpha=0,beta=0.5")

    def test_legacy_families_reject_axes(self):
        with pytest.raises(ValueError, match="fixed role layout"):
            generate_network("mesh", 5, roles="c2i2h1")
        with pytest.raises(ValueError, match="no topology knobs"):
            generate_network("ring", 5, params="p=0.4")


class TestRoleSpec:
    @pytest.mark.parametrize(
        "text", ["c1i3h1", "c2i3h2", "c1i2h1p1", "c10i4h3p2"]
    )
    def test_key_round_trips(self, text):
        assert RoleSpec.parse(text).key() == text

    def test_coerce(self):
        assert RoleSpec.coerce(None) is None
        assert RoleSpec.coerce("default") is None
        assert RoleSpec.coerce("") is None
        spec = RoleSpec(customers=2, isps=2, homes=2)
        assert RoleSpec.coerce(spec) is spec
        assert RoleSpec.coerce("c2i2h2") == spec

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="invalid role spec"):
            RoleSpec.parse("2c3i")
        with pytest.raises(ValueError, match="at least one customer"):
            RoleSpec(customers=0, isps=2, homes=1)
        with pytest.raises(ValueError, match="at least one home"):
            RoleSpec(customers=1, isps=2, homes=0)

    def test_attachment_count(self):
        assert RoleSpec.parse("c2i3h2p1").attachments == 2 + 6 + 1
