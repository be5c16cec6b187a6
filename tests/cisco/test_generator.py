"""Tests for the IOS generator (and parse/generate round-trips)."""

from repro.cisco import generate_cisco, parse_cisco
from repro.netmodel import (
    BgpNeighbor,
    Interface,
    Ipv4Address,
    Prefix,
    RouterConfig,
)
from repro.sampleconfigs import BATFISH_EXAMPLE_CISCO


class TestGenerate:
    def test_hostname_rendered(self):
        cfg = RouterConfig(hostname="r9")
        assert "hostname r9" in generate_cisco(cfg)

    def test_interface_rendered_with_mask(self):
        cfg = RouterConfig(hostname="r")
        cfg.add_interface(Interface(
            "eth0/0", address=Ipv4Address.parse("2.0.0.1"),
            prefix=Prefix.parse("2.0.0.1/24"),
        ))
        text = generate_cisco(cfg)
        assert "ip address 2.0.0.1 255.255.255.0" in text

    def test_ospf_cost_rendered(self):
        cfg = RouterConfig(hostname="r")
        cfg.add_interface(
            Interface(
                "Loopback0", address=Ipv4Address.parse("1.1.1.1"),
                prefix=Prefix.parse("1.1.1.1/32"), ospf_cost=1,
            )
        )
        assert "ip ospf cost 1" in generate_cisco(cfg)

    def test_bgp_neighbor_order_is_deterministic(self):
        cfg = RouterConfig(hostname="r")
        bgp = cfg.ensure_bgp(100)
        bgp.add_neighbor(BgpNeighbor(ip=Ipv4Address.parse("9.0.0.2"), remote_as=9))
        bgp.add_neighbor(BgpNeighbor(ip=Ipv4Address.parse("1.0.0.2"), remote_as=1))
        text = generate_cisco(cfg)
        assert text.index("neighbor 1.0.0.2") < text.index("neighbor 9.0.0.2")

    def test_send_community_rendered(self):
        cfg = RouterConfig(hostname="r")
        bgp = cfg.ensure_bgp(100)
        bgp.add_neighbor(
            BgpNeighbor(
                ip=Ipv4Address.parse("1.0.0.2"), remote_as=1, send_community=True
            )
        )
        assert "send-community" in generate_cisco(cfg)

    def test_network_mask_form(self):
        cfg = RouterConfig(hostname="r")
        cfg.ensure_bgp(100).announce(Prefix.parse("1.2.3.0/24"))
        assert "network 1.2.3.0 mask 255.255.255.0" in generate_cisco(cfg)


class TestRoundTrip:
    def test_bundled_config_roundtrips_clean(self):
        first = parse_cisco(BATFISH_EXAMPLE_CISCO)
        assert not first.warnings
        regenerated = generate_cisco(first.config)
        second = parse_cisco(regenerated)
        assert not second.warnings

    def test_roundtrip_preserves_bgp(self):
        first = parse_cisco(BATFISH_EXAMPLE_CISCO).config
        second = parse_cisco(generate_cisco(first)).config
        assert set(second.bgp.neighbors) == set(first.bgp.neighbors)
        assert second.bgp.asn == first.bgp.asn
        assert second.bgp.networks == first.bgp.networks

    def test_roundtrip_preserves_route_maps(self):
        first = parse_cisco(BATFISH_EXAMPLE_CISCO).config
        second = parse_cisco(generate_cisco(first)).config
        assert set(second.route_maps) == set(first.route_maps)
        for name, rm in first.route_maps.items():
            assert [c.seq for c in second.route_maps[name].clauses] == [
                c.seq for c in rm.clauses
            ]

    def test_roundtrip_preserves_prefix_list_ranges(self):
        first = parse_cisco(BATFISH_EXAMPLE_CISCO).config
        second = parse_cisco(generate_cisco(first)).config
        ours = second.prefix_lists["our-networks"].entries[0].range
        assert (ours.low, ours.high) == (24, 32)

    def test_roundtrip_preserves_redistribution(self):
        first = parse_cisco(BATFISH_EXAMPLE_CISCO).config
        second = parse_cisco(generate_cisco(first)).config
        assert len(second.bgp.redistributions) == 1
        assert second.bgp.redistributions[0].route_map == "ospf-into-bgp"

    def test_roundtrip_preserves_ospf(self):
        first = parse_cisco(BATFISH_EXAMPLE_CISCO).config
        second = parse_cisco(generate_cisco(first)).config
        assert second.ospf.passive_interfaces == first.ospf.passive_interfaces
        assert len(second.ospf.networks) == len(first.ospf.networks)

    def test_star_reference_configs_roundtrip_clean(self, star7_configs):
        for name, cfg in star7_configs.items():
            result = parse_cisco(generate_cisco(cfg), filename=name)
            assert not result.warnings, name

    def test_inline_community_roundtrips_as_warning(self):
        """A draft with the invalid inline form must re-emit it verbatim
        so the syntax verifier keeps seeing it."""
        text = "route-map M permit 10\n match community 100:1\n"
        config = parse_cisco(text).config
        regenerated = generate_cisco(config)
        assert "match community 100:1" in regenerated
        assert parse_cisco(regenerated).warnings
