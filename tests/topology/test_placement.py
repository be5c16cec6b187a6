"""Degree-aware role placement (``place="degree"``).

The strategy pins customer roles to the lowest-degree routers (the
network edge) while ISPs/peers still seed-shuffle over the remaining
hosts.  Contract: deterministic per (family, size, seed, knobs, roles,
place), and the sampled *graph* is placement-independent — an ablation
over ``place`` compares placements on identical links.
"""

import pytest

from repro.topology.families import generate_network
from repro.topology.randomnet import PLACEMENTS, coerce_placement
from repro.topology.roles import RoleAssignment

FAMILIES = ["random", "waxman"]


def _internal_degrees(topology):
    degrees = {name: 0 for name in topology.router_names()}
    for link in topology.links:
        degrees[link.router_a] += 1
        degrees[link.router_b] += 1
    return degrees


class TestCoercion:
    def test_defaults_map_to_seeded(self):
        assert coerce_placement(None) == "seeded"
        assert coerce_placement("") == "seeded"
        assert coerce_placement("default") == "seeded"

    def test_known_strategies_pass_through(self):
        for place in PLACEMENTS:
            assert coerce_placement(place) == place

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            coerce_placement("centrality")


@pytest.mark.parametrize("family", FAMILIES)
class TestDegreePlacement:
    def test_byte_deterministic(self, family):
        one = generate_network(
            family, 9, seed=3, roles="c2i2h1", place="degree"
        )
        two = generate_network(
            family, 9, seed=3, roles="c2i2h1", place="degree"
        )
        assert one.topology.to_json() == two.topology.to_json()
        assert one.place == "degree"

    def test_graph_is_placement_independent(self, family):
        seeded = generate_network(family, 9, seed=3, roles="c2i2h1")
        degree = generate_network(
            family, 9, seed=3, roles="c2i2h1", place="degree"
        )
        seeded_links = [
            (link.router_a, link.router_b) for link in seeded.topology.links
        ]
        degree_links = [
            (link.router_a, link.router_b) for link in degree.topology.links
        ]
        assert seeded_links == degree_links

    def test_customers_land_on_lowest_degree_routers(self, family):
        for seed in range(4):
            network = generate_network(
                family, 10, seed=seed, roles="c2i3h1", place="degree"
            )
            topology = network.topology
            degrees = _internal_degrees(topology)
            roles = RoleAssignment.from_topology(topology)
            customer_routers = [a.router for a in roles.customers]
            expected = sorted(
                topology.router_names(),
                key=lambda name: (degrees[name], int(name[1:])),
            )[: len(customer_routers)]
            assert sorted(customer_routers) == sorted(expected), (
                f"seed {seed}: customers on {customer_routers}, "
                f"lowest-degree routers are {expected} ({degrees})"
            )

    def test_roles_still_complete(self, family):
        network = generate_network(
            family, 9, seed=5, roles="c2i2h2", place="degree"
        )
        roles = RoleAssignment.from_topology(network.topology)
        assert len(roles.customers) == 2
        assert len(roles.transit_forbidden()) == 4
        assert any(len(roles.groups.get(index, ())) > 1 for index in roles.indices())


class TestFixedLayoutRejection:
    @pytest.mark.parametrize("family", ["star", "chain", "ring", "mesh", "dumbbell"])
    def test_hand_shaped_families_reject_degree(self, family):
        with pytest.raises(ValueError, match="placement"):
            generate_network(family, 6, place="degree")

    def test_default_place_accepted_everywhere(self):
        network = generate_network("chain", 6, place="default")
        assert network.family == "chain"
