"""Tests for interfaces, BGP/OSPF processes, and RouterConfig."""

from repro.netmodel import (
    AccessList,
    BgpNeighbor,
    BgpProcess,
    Interface,
    Ipv4Address,
    OspfProcess,
    Prefix,
    Protocol,
    Redistribution,
    RouteMap,
    RouterConfig,
    Vendor,
)
from repro.netmodel.routing_policy import (
    Action,
    MatchCommunityList,
    MatchPrefixList,
    RouteMapClause,
)


class TestInterface:
    def test_is_loopback(self):
        assert Interface(name="Loopback0").is_loopback()
        assert Interface(name="lo0").is_loopback()
        assert not Interface(name="eth0/0").is_loopback()


class TestBgpProcess:
    def test_add_and_get_neighbor(self):
        bgp = BgpProcess(asn=100)
        neighbor = BgpNeighbor(ip=Ipv4Address.parse("1.0.0.2"), remote_as=2)
        bgp.add_neighbor(neighbor)
        assert bgp.get_neighbor("1.0.0.2") is neighbor
        assert bgp.get_neighbor(Ipv4Address.parse("1.0.0.2")) is neighbor

    def test_remove_neighbor(self):
        bgp = BgpProcess(asn=100)
        bgp.add_neighbor(BgpNeighbor(ip=Ipv4Address.parse("1.0.0.2"), remote_as=2))
        bgp.remove_neighbor("1.0.0.2")
        assert bgp.get_neighbor("1.0.0.2") is None

    def test_announce_idempotent(self):
        bgp = BgpProcess(asn=100)
        prefix = Prefix.parse("1.0.0.0/24")
        bgp.announce(prefix)
        bgp.announce(prefix)
        assert bgp.networks == [prefix]
        assert bgp.announces(prefix)

    def test_sorted_neighbors(self):
        bgp = BgpProcess(asn=100)
        bgp.add_neighbor(BgpNeighbor(ip=Ipv4Address.parse("2.0.0.2"), remote_as=3))
        bgp.add_neighbor(BgpNeighbor(ip=Ipv4Address.parse("1.0.0.2"), remote_as=2))
        ips = [str(n.ip) for n in bgp.sorted_neighbors()]
        assert ips == ["1.0.0.2", "2.0.0.2"]


class TestOspfProcess:
    def test_add_network_dedupes(self):
        ospf = OspfProcess()
        ospf.add_network(Prefix.parse("1.0.0.0/24"), area=0)
        ospf.add_network(Prefix.parse("1.0.0.0/24"), area=0)
        assert len(ospf.networks) == 1

    def test_passive(self):
        ospf = OspfProcess()
        ospf.set_passive("Loopback0")
        ospf.set_passive("Loopback0")
        assert ospf.is_passive("Loopback0")
        assert ospf.passive_interfaces == ["Loopback0"]

    def test_covers(self):
        ospf = OspfProcess()
        ospf.add_network(Prefix.parse("1.0.0.0/16"), area=7)
        assert ospf.covers(Prefix.parse("1.0.3.0/24")) == 7
        assert ospf.covers(Prefix.parse("9.0.0.0/24")) is None

    def test_area_interfaces_deduplicated(self):
        ospf = OspfProcess()
        ospf.add_area_interface(0, "eth0")
        ospf.add_area_interface(1, "eth1")
        ospf.add_area_interface(0, "eth0")
        assert ospf.area_interfaces == {0: ["eth0"], 1: ["eth1"]}


class TestRouterConfig:
    def test_policy_context_lookups(self):
        cfg = RouterConfig(hostname="r1")
        assert cfg.get_prefix_list("x") is None
        assert cfg.get_community_list("x") is None
        assert cfg.get_as_path_list("x") is None

    def test_access_list_registry(self):
        cfg = RouterConfig(hostname="r1")
        assert cfg.get_access_list("10") is None
        acl = cfg.add_access_list(AccessList("10"))
        assert cfg.get_access_list("10") is acl
        replacement = cfg.add_access_list(AccessList("10"))
        assert cfg.get_access_list("10") is replacement

    def test_ensure_bgp_idempotent(self):
        cfg = RouterConfig(hostname="r1")
        bgp = cfg.ensure_bgp(100)
        assert cfg.ensure_bgp(999) is bgp
        assert bgp.asn == 100

    def test_ensure_ospf_idempotent(self):
        cfg = RouterConfig(hostname="r1")
        ospf = cfg.ensure_ospf(1)
        assert cfg.ensure_ospf(2) is ospf

    def test_sorted_interfaces(self):
        cfg = RouterConfig(hostname="r1")
        cfg.add_interface(Interface(name="eth1"))
        cfg.add_interface(Interface(name="eth0"))
        assert [i.name for i in cfg.sorted_interfaces()] == ["eth0", "eth1"]

    def test_undefined_references_neighbor_policy(self):
        cfg = RouterConfig(hostname="r1")
        bgp = cfg.ensure_bgp(100)
        bgp.add_neighbor(
            BgpNeighbor(
                ip=Ipv4Address.parse("1.0.0.2"),
                remote_as=2,
                import_policy="missing-map",
            )
        )
        assert "route-map missing-map" in cfg.undefined_references()

    def test_undefined_references_prefix_list(self):
        cfg = RouterConfig(hostname="r1")
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.PERMIT)
        clause.matches.append(MatchPrefixList("ghost"))
        rm.add_clause(clause)
        cfg.add_route_map(rm)
        assert "prefix-list ghost" in cfg.undefined_references()

    def test_undefined_references_community_list(self):
        cfg = RouterConfig(hostname="r1")
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.DENY)
        clause.matches.append(MatchCommunityList("ghost"))
        rm.add_clause(clause)
        cfg.add_route_map(rm)
        assert "community-list ghost" in cfg.undefined_references()

    def test_undefined_references_redistribution_map(self):
        cfg = RouterConfig(hostname="r1")
        bgp = cfg.ensure_bgp(100)
        bgp.redistributions.append(
            Redistribution(protocol=Protocol.OSPF, route_map="ghost")
        )
        assert "route-map ghost" in cfg.undefined_references()

    def test_no_undefined_references_when_clean(self):
        cfg = RouterConfig(hostname="r1")
        assert cfg.undefined_references() == []

    def test_vendor_default(self):
        assert RouterConfig(hostname="r1").vendor is Vendor.CISCO
