"""Role assignments: recovery from topologies and the full no-transit
pipeline on multi-customer / multi-homed-ISP networks.

The acceptance bar mirrors the family tests: a role-assigned scenario
must run reference configs → local invariants → composition → global
check end to end, with per-role verdicts that hold on the references
and flip for exactly the implicated roles when a policy is broken.
"""

import pytest

from repro.cisco import generate_cisco, parse_cisco
from repro.netmodel import Ipv4Address
from repro.lightyear import (
    check_composition,
    check_global_no_transit,
    no_transit_invariants,
    verify_invariants,
)
from repro.topology import (
    RoleAssignment,
    RoleKind,
    generate_network,
)
from repro.topology.context import topology_context
from repro.topology.model import ExternalPeer
from repro.topology.reference import build_reference_configs
from repro.topology.roles import attachment_isp_index, customer_ordinal
from repro.topology.verifier import verify_topology

ROLED = "c2i2h2p1"  # 2 customers, 2 dual-homed ISPs, 1 peer -> 7 attachments


def _parsed_reference_configs(topology):
    parsed = {}
    for name, config in build_reference_configs(topology).items():
        result = parse_cisco(
            generate_cisco(config), filename=f"{name}.cfg", default_hostname=name
        )
        assert not result.warnings, [w.render() for w in result.warnings]
        parsed[name] = result.config
    return parsed


class TestRoleAssignmentRecovery:
    def test_legacy_family_is_the_degenerate_case(self):
        topology = generate_network("chain", 5).topology
        roles = RoleAssignment.from_topology(topology)
        assert [a.role_name for a in roles.customers] == ["CUSTOMER"]
        assert roles.indices() == [2, 3, 4, 5]
        assert not any(len(roles.groups.get(i, ())) > 1 for i in roles.indices())
        assert all(
            a.kind is RoleKind.PROVIDER for a in roles.transit_forbidden()
        )

    def test_roled_network_recovers_groups(self):
        topology = generate_network("random", 9, seed=5, roles=ROLED).topology
        roles = RoleAssignment.from_topology(topology)
        assert len(roles.customers) == 2
        assert roles.indices() == [2, 3, 4]
        assert len(roles.groups.get(2, ())) > 1 and len(roles.groups.get(3, ())) > 1
        assert not len(roles.groups.get(4, ())) > 1
        kinds = {
            index: roles.groups[index][0].kind for index in roles.indices()
        }
        assert kinds[2] is RoleKind.PROVIDER
        assert kinds[4] is RoleKind.PEER
        assert roles.role_names() == [
            "CUSTOMER", "CUSTOMER_2", "ISP_2", "ISP_3", "PEER_4",
        ]

    def test_map_names_follow_the_slot(self):
        topology = generate_network("random", 8, seed=1, roles="c1i1h2").topology
        context = topology_context(topology)
        home_a, home_b = context.roles.groups[2]
        for home in (home_a, home_b):
            assert context.ingress_maps[home.router] == "ADD_COMM_R2"
            assert context.egress_maps[home.router] == "FILTER_COMM_OUT_R2"
        customer_router = context.roles.customers[0].router
        if customer_router not in {home_a.router, home_b.router}:
            assert customer_router not in context.ingress_maps


class TestRoledPipeline:
    @pytest.mark.parametrize("family", ["random", "waxman"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_references_verify_end_to_end(self, family, seed):
        topology = generate_network(family, 9, seed=seed, roles=ROLED).topology
        configs = _parsed_reference_configs(topology)
        for name, config in configs.items():
            issues = verify_topology(config, topology.router(name))
            assert not issues, [issue.message for issue in issues]
        invariants = no_transit_invariants(topology)
        roles = RoleAssignment.from_topology(topology)
        # one ingress-tag + one egress-filter obligation per attachment
        assert len(invariants) == 2 * len(roles.transit_forbidden())
        violations = verify_invariants(configs, invariants)
        assert not violations, [v.message for v in violations]
        composition = check_composition(invariants, configs, topology)
        assert composition.holds, composition.describe()
        check = check_global_no_transit(configs, topology)
        assert check.holds, check.describe()
        assert set(check.role_verdicts) == set(roles.role_names())
        assert all(check.role_verdicts.values())

    def test_invariants_share_one_tag_per_isp(self):
        topology = generate_network("random", 8, seed=1, roles="c1i1h2").topology
        invariants = no_transit_invariants(topology)
        tags = {
            inv.community
            for inv in invariants
            if inv.__class__.__name__ == "IngressTagInvariant"
        }
        assert len(tags) == 1  # both homes tag with ISP_2's community

    def test_broken_home_blames_both_implicated_isps(self):
        topology = generate_network("random", 9, seed=1, roles="c2i2h2").topology
        roles = RoleAssignment.from_topology(topology)
        victim = roles.groups[2][1]  # second home of ISP_2
        configs = build_reference_configs(topology)
        neighbor = configs[victim.router].bgp.get_neighbor(victim.peer.peer_ip)
        neighbor.export_policy = None
        check = check_global_no_transit(configs, topology)
        assert not check.holds
        assert check.transit_violations
        assert check.role_verdicts["ISP_2"] is False
        assert check.role_verdicts["ISP_3"] is False
        assert check.role_verdicts["CUSTOMER"] is True

    def test_missing_border_config_flags_the_role(self):
        topology = generate_network("random", 9, seed=2, roles="c2i2h2").topology
        roles = RoleAssignment.from_topology(topology)
        victim = roles.groups[3][0]
        configs = build_reference_configs(topology)
        del configs[victim.router]
        check = check_global_no_transit(configs, topology)
        assert not check.holds
        assert check.role_verdicts["ISP_3"] is False

    def test_peer_has_no_reachability_obligation(self):
        """Severing a PEER's customer path must not fail the check —
        peers are transit-forbidden but owed nothing."""
        topology = generate_network("random", 9, seed=0, roles=ROLED).topology
        roles = RoleAssignment.from_topology(topology)
        (peer,) = roles.groups[4]
        assert peer.kind is RoleKind.PEER
        configs = build_reference_configs(topology)
        check = check_global_no_transit(configs, topology)
        assert check.holds
        # the customer side is also not owed the peer's prefix
        assert not any("PEER_4" in line for line in check.isp_prefixes_missing_at_hub)


class TestCompositionGrouping:
    def test_multi_homed_pairs_need_no_coverage(self):
        """Without role grouping, the (home A -> home B) pair of one
        ISP would count as uncovered (its own tag is deliberately not
        forbidden at its other home) and the composition argument would
        wrongly fail on every multi-homed network."""
        topology = generate_network("random", 8, seed=3, roles="c1i2h2").topology
        configs = build_reference_configs(topology)
        invariants = no_transit_invariants(topology)
        result = check_composition(invariants, configs, topology)
        assert result.holds, result.describe()
        # all cross-ISP ordered pairs, none of the intra-ISP ones:
        # 2 homes x 2 homes x 2 directions = 8
        assert len(result.covered_pairs) == 8


class TestSlotHelpers:
    @pytest.mark.parametrize(
        "peer_name, ordinal",
        [("CUSTOMER", 1), ("CUSTOMER_3", 3), ("ISP_2", None), ("CUSTOMER_X", None)],
    )
    def test_customer_ordinal(self, peer_name, ordinal):
        assert customer_ordinal(peer_name) == ordinal

    def test_isp_index_from_peer_name(self):
        peer = ExternalPeer("R1", "eth0/1", "ISP_5", Ipv4Address.parse("9.0.0.2"), 5)
        assert attachment_isp_index(peer) == 5

    def test_isp_index_falls_back_to_router(self):
        peer = ExternalPeer("R4", "eth0/1", "UPSTREAM", Ipv4Address.parse("9.0.0.2"), 5)
        assert attachment_isp_index(peer) == 4

    def test_isp_index_without_digits_raises(self):
        peer = ExternalPeer("hub", "eth0/1", "UPSTREAM", Ipv4Address.parse("9.0.0.2"), 5)
        with pytest.raises(ValueError):
            attachment_isp_index(peer)

    def test_attachments_of_lists_hosted_ones(self):
        topology = generate_network("random", 8, seed=1, roles=ROLED).topology
        roles = RoleAssignment.from_topology(topology)
        hosted = {
            name: [a.peer.peer_name for a in roles.attachments_of(name)]
            for name in topology.router_names()
        }
        assert sorted(
            peer for peers in hosted.values() for peer in peers
        ) == sorted(a.peer.peer_name for a in roles.transit_forbidden())
        assert all(len(peers) <= 1 for peers in hosted.values())
        assert [] in hosted.values()  # some routers host no attachment
        configs = build_reference_configs(topology)
        for name, peers in hosted.items():
            # Only a router hosting an ISP or peer carries border policy.
            assert bool(configs[name].route_maps) == bool(peers)
