"""Tests for the topology verifier (Table 3's seven inconsistencies)."""

import copy

import pytest

from repro.netmodel import BgpNeighbor, Ipv4Address, Prefix
from repro.topology import TopologyIssueKind, verify_topology
from repro.topology.reference import build_reference_configs


@pytest.fixture()
def r2_config(star7):
    return build_reference_configs(star7.topology)["R2"]


@pytest.fixture()
def r2_spec(star7):
    return star7.topology.router("R2")


class TestVerifyTopology:
    def test_reference_config_is_clean(self, r2_config, r2_spec):
        assert verify_topology(r2_config, r2_spec) == []

    def test_interface_address_mismatch(self, r2_config, r2_spec):
        r2_config.interfaces["eth0/0"].address = Ipv4Address.parse("1.0.0.9")
        (issue,) = verify_topology(r2_config, r2_spec)
        assert issue.kind is TopologyIssueKind.INTERFACE_ADDRESS_MISMATCH
        assert (
            issue.message
            == "Interface eth0/0 ip address does not match with given "
            "config. Expected 1.0.0.2, found 1.0.0.9"
        )

    def test_missing_interface(self, r2_config, r2_spec):
        del r2_config.interfaces["eth0/1"]
        (issue,) = verify_topology(r2_config, r2_spec)
        assert issue.kind is TopologyIssueKind.MISSING_INTERFACE

    def test_local_as_mismatch_matches_table3(self, r2_config, r2_spec):
        r2_config.bgp.asn = 3
        issues = verify_topology(r2_config, r2_spec)
        messages = [i.message for i in issues]
        assert "Local AS number does not match. Expected 2, found 3" in messages

    def test_router_id_mismatch_matches_table3(self, r2_config, r2_spec):
        r2_config.bgp.router_id = Ipv4Address.parse("1.0.0.1")
        issues = verify_topology(r2_config, r2_spec)
        assert any(
            i.message
            == "Router ID does not match with given config. Expected "
            "1.0.0.2, found 1.0.0.1"
            for i in issues
        )

    def test_missing_neighbor_matches_table3(self, r2_config, r2_spec):
        r2_config.bgp.remove_neighbor("1.0.0.1")
        issues = verify_topology(r2_config, r2_spec)
        assert any(
            i.message == "Neighbor with IP address 1.0.0.1 and AS 1 not declared"
            for i in issues
        )

    def test_wrong_neighbor_as_counts_as_missing(self, r2_config, r2_spec):
        r2_config.bgp.neighbors["1.0.0.1"].remote_as = 99
        issues = verify_topology(r2_config, r2_spec)
        kinds = {i.kind for i in issues}
        assert TopologyIssueKind.MISSING_NEIGHBOR in kinds
        assert TopologyIssueKind.INCORRECT_NEIGHBOR in kinds

    def test_missing_network_matches_table3(self, r2_config, r2_spec):
        r2_config.bgp.networks = [
            p for p in r2_config.bgp.networks if str(p) != "1.0.0.0/24"
        ]
        issues = verify_topology(r2_config, r2_spec)
        assert any(
            i.message == "Network 1.0.0.0/24 not declared" for i in issues
        )

    def test_extra_network_matches_table3(self, star7):
        """Table 3 item 6: 7.0.0.0/24 is not directly connected to R1."""
        configs = build_reference_configs(star7.topology)
        hub = configs["R1"]
        hub.bgp.announce(Prefix.parse("7.0.0.0/24"))
        issues = verify_topology(hub, star7.topology.router("R1"))
        assert any(
            i.message
            == "Incorrect network declaration. 7.0.0.0/24 is not directly "
            "connected to R1"
            for i in issues
        )

    def test_extra_neighbor_matches_table3(self, star7):
        """Table 3 item 7: no neighbor 7.0.0.2 AS 7 in the topology."""
        configs = build_reference_configs(star7.topology)
        hub = configs["R1"]
        hub.bgp.add_neighbor(
            BgpNeighbor(ip=Ipv4Address.parse("7.0.0.2"), remote_as=7)
        )
        issues = verify_topology(hub, star7.topology.router("R1"))
        assert any(
            i.message
            == "Incorrect neighbor declaration. No neighbor with IP address "
            "7.0.0.2 AS 7 found"
            for i in issues
        )

    def test_missing_bgp(self, r2_config, r2_spec):
        r2_config.bgp = None
        (issue,) = verify_topology(r2_config, r2_spec)
        assert issue.kind is TopologyIssueKind.MISSING_BGP


class TestReferenceNetwork:
    def test_all_reference_configs_clean(self, star7, star7_configs):
        for name in star7.topology.router_names():
            spec = star7.topology.router(name)
            assert verify_topology(star7_configs[name], spec) == []

    def test_issues_attributed_to_router(self, star7, star7_configs):
        configs = copy.deepcopy(star7_configs)
        configs["R3"].bgp.asn = 1
        issues = verify_topology(configs["R3"], star7.topology.router("R3"))
        assert issues
        assert all(i.router == "R3" for i in issues)
