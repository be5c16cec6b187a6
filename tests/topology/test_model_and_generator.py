"""Tests for the topology model, JSON export, and star generator."""

import json

import pytest

from repro.netmodel import Ipv4Address, Prefix
from repro.topology import (
    generate_star_network,
    ingress_community,
)
from repro.topology.generator import CUSTOMER_ASN
from repro.topology.reference import (
    community_list_number,
    core_export_map_name,
    egress_map_name,
    ingress_map_name,
    isp_prefix_list_name,
)


class TestStarGenerator:
    def test_router_count(self, star7):
        assert len(star7.topology.routers) == 7

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            generate_star_network(1)

    def test_maximum_size_enforced(self):
        with pytest.raises(ValueError):
            generate_star_network(99)

    def test_hub_as_number(self, star7):
        assert star7.topology.router("R1").asn == 1

    def test_spoke_as_numbers(self, star7):
        assert star7.topology.router("R5").asn == 5

    def test_link_addressing_matches_table3(self, star7):
        """R2's hub link is 1.0.0.0/24: R1 at 1.0.0.1, R2 at 1.0.0.2
        (Table 3's Expected 1.0.0.2 router-id and 1.0.0.1 AS-1 neighbor)."""
        r2 = star7.topology.router("R2")
        assert str(r2.router_id) == "1.0.0.2"
        hub_neighbor = r2.neighbor_with_ip(Ipv4Address.parse("1.0.0.1"))
        assert hub_neighbor is not None
        assert hub_neighbor.asn == 1

    def test_hub_interface_to_r3(self, star7):
        """Table 3's 'Interface eth0/2 ... Expected 2.0.0.1'."""
        spec = star7.topology.router("R1").interface("eth0/2")
        assert str(spec.address) == "2.0.0.1"

    def test_customer_attachment(self, star7):
        hub = star7.topology.router("R1")
        customer = hub.neighbor_with_ip(Ipv4Address.parse("100.0.0.2"))
        assert customer.asn == CUSTOMER_ASN
        assert customer.peer_name == "CUSTOMER"

    def test_isp_attachments(self, star7):
        (isp,) = [
            e
            for e in star7.topology.externals
            if e.router == "R2" and e.peer_name == "ISP_2"
        ]
        assert isp.peer_asn == 1002
        assert str(isp.peer_ip) == "200.2.0.2"

    def test_spoke_networks(self, star7):
        r2 = star7.topology.router("R2")
        assert Prefix.parse("1.0.0.0/24") in r2.networks
        assert Prefix.parse("200.2.0.0/24") in r2.networks

    def test_links_count(self, star7):
        assert len(star7.topology.links) == 6

    def test_description_mentions_connections(self, star7):
        assert "Router R1 is connected to Router R2" in star7.description
        assert "eth0/1 at R1" in star7.description

    def test_description_mentions_announcements(self, star7):
        assert "must announce" in star7.description

    def test_router_names_numeric_order(self):
        star = generate_star_network(12)
        names = star.topology.router_names()
        assert names.index("R2") < names.index("R10")


class TestIngressCommunity:
    def test_paper_assignment(self):
        """§4.2: 100:1 for R2, 101:1 for R3, ..."""
        assert str(ingress_community(2)) == "100:1"
        assert str(ingress_community(3)) == "101:1"
        assert str(ingress_community(6)) == "104:1"

    def test_hub_has_no_community(self):
        with pytest.raises(ValueError):
            ingress_community(1)


class TestReferenceNames:
    def test_community_list_number(self):
        assert community_list_number(2) == 1
        assert community_list_number(7) == 6
        with pytest.raises(ValueError):
            community_list_number(1)

    def test_hub_policy_uses_the_named_maps(self, star7_configs):
        hub = star7_configs["R1"]
        for index in range(2, 8):
            assert ingress_map_name(index) in hub.route_maps
            assert egress_map_name(index) in hub.route_maps
            assert str(community_list_number(index)) in hub.community_lists
        assert core_export_map_name(2) == "EXPORT_CORE_R2"
        assert isp_prefix_list_name(2) == "PL_ISP_R2"


class TestRouterSpecLookups:
    def test_connected_prefixes(self, star7):
        spec = star7.topology.router("R2")
        assert [str(p) for p in spec.connected_prefixes()] == [
            "1.0.0.0/24",
            "200.2.0.0/24",
        ]

    def test_neighbor_with_ip(self, star7):
        spec = star7.topology.router("R2")
        assert spec.neighbor_with_ip(Ipv4Address.parse("1.0.0.1")).peer_name == "R1"
        assert spec.neighbor_with_ip(Ipv4Address.parse("9.9.9.9")) is None

    def test_interface_lookup(self, star7):
        spec = star7.topology.router("R2")
        assert str(spec.interface("eth0/1").address) == "200.2.0.1"
        assert spec.interface("eth9/9") is None


class TestJsonExport:
    def test_json_is_valid_and_sorted(self, star7):
        data = json.loads(star7.topology.to_json())
        assert set(data) == {"external_peers", "links", "name", "routers"}

    def test_router_fields(self, star7):
        data = star7.topology.to_dict()
        r2 = data["routers"]["R2"]
        assert r2["asn"] == 2
        assert r2["router_id"] == "1.0.0.2"
        assert "eth0/0" in r2["interfaces"]

    def test_neighbors_exported(self, star7):
        r2 = star7.topology.to_dict()["routers"]["R2"]
        assert len(r2["neighbors"]) == 2
