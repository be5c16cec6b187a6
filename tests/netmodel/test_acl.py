"""Tests for standard ACLs."""

import pytest
from hypothesis import given, strategies as st

from repro.netmodel import AccessList, AclEntry, Ipv4Address, Prefix
from repro.netmodel.ip import AddressError


class TestAclEntry:
    def test_host_match(self):
        entry = AclEntry.from_strings("permit", "1.2.3.0")
        assert entry.matches_prefix(Prefix.parse("1.2.3.0/24"))
        assert not entry.matches_prefix(Prefix.parse("1.2.4.0/24"))

    def test_wildcard_match(self):
        entry = AclEntry.from_strings("permit", "1.2.3.0", "0.0.0.255")
        assert entry.matches_prefix(Prefix.parse("1.2.3.0/24"))
        assert entry.matches_prefix(Prefix.parse("1.2.3.128/25"))
        assert not entry.matches_prefix(Prefix.parse("1.2.4.0/24"))

    def test_matches_address_ignores_wildcard_bits(self):
        entry = AclEntry.from_strings("permit", "10.0.0.0", "0.0.255.255")
        assert entry.matches_address(Ipv4Address.parse("10.0.7.9").value)
        assert entry.matches_address(Ipv4Address.parse("10.0.255.255").value)
        assert not entry.matches_address(Ipv4Address.parse("10.1.0.0").value)

    def test_any(self):
        entry = AclEntry.any()
        assert entry.matches_prefix(Prefix.parse("9.9.9.0/24"))

    def test_invalid_action_rejected(self):
        with pytest.raises(AddressError):
            AclEntry.from_strings("allow", "1.2.3.0")

    def test_contiguous_detection(self):
        assert AclEntry.from_strings("permit", "1.2.3.0", "0.0.0.255").is_contiguous()
        assert AclEntry.from_strings("permit", "1.2.3.0", "0.0.255.0").is_contiguous() is False
        assert AclEntry.any().is_contiguous()

    def test_as_prefix_ranges_contiguous(self):
        entry = AclEntry.from_strings("permit", "1.2.3.0", "0.0.0.255")
        prefix_range = entry.as_prefix_ranges()[0]
        assert str(prefix_range.prefix) == "1.2.3.0/24"
        assert prefix_range.high == 32

    def test_as_prefix_ranges_host(self):
        entry = AclEntry.from_strings("permit", "1.1.1.1")
        assert str(entry.as_prefix_ranges()[0].prefix) == "1.1.1.1/32"

    def test_as_prefix_ranges_non_contiguous_is_empty(self):
        entry = AclEntry.from_strings("permit", "1.2.3.0", "0.0.255.0")
        assert entry.as_prefix_ranges() == []

    def test_render_forms(self):
        assert AclEntry.any().render_cisco() == "permit any"
        assert (
            AclEntry.from_strings("deny", "1.1.1.1").render_cisco()
            == "deny host 1.1.1.1"
        )
        assert (
            AclEntry.from_strings("permit", "1.2.3.0", "0.0.0.255").render_cisco()
            == "permit 1.2.3.0 0.0.0.255"
        )


class TestAccessList:
    def test_first_match_wins(self):
        acl = AccessList("1")
        acl.add(AclEntry.from_strings("deny", "1.2.3.0", "0.0.0.255"))
        acl.add(AclEntry.any("permit"))
        assert not acl.permits_prefix(Prefix.parse("1.2.3.0/24"))
        assert acl.permits_prefix(Prefix.parse("9.9.9.0/24"))

    def test_default_deny(self):
        acl = AccessList("1")
        acl.add(AclEntry.from_strings("permit", "1.2.3.0", "0.0.0.255"))
        assert not acl.permits_prefix(Prefix.parse("9.9.9.0/24"))

    def test_permitted_ranges_skips_non_contiguous(self):
        acl = AccessList("1")
        acl.add(AclEntry.from_strings("permit", "1.2.3.0", "0.0.0.255"))
        acl.add(AclEntry.from_strings("permit", "2.0.0.0", "0.0.255.0"))
        ranges = acl.permitted_ranges()
        assert len(ranges) == 1

    @given(st.integers(0, 0xFFFFFFFF))
    def test_any_matches_everything(self, network):
        acl = AccessList("1")
        acl.add(AclEntry.any())
        assert acl.permits_prefix(Prefix(network, 24))


class TestAclInRouteMaps:
    def test_parse_numbered_acl(self):
        from repro.cisco import parse_cisco

        result = parse_cisco("access-list 10 permit 1.2.3.0 0.0.0.255\n")
        assert not result.warnings
        acl = result.config.access_lists["10"]
        assert acl.permits_prefix(Prefix.parse("1.2.3.0/24"))

    def test_parse_named_acl_block(self):
        from repro.cisco import parse_cisco

        text = (
            "ip access-list standard OUR\n"
            " permit 1.2.3.0 0.0.0.255\n"
            " deny any\n"
        )
        result = parse_cisco(text)
        assert not result.warnings
        assert len(result.config.access_lists["OUR"].entries) == 2

    def test_match_ip_address_acl(self):
        from repro.cisco import parse_cisco
        from repro.netmodel import MatchAcl

        text = (
            "access-list 10 permit 1.2.3.0 0.0.0.255\n"
            "route-map M permit 10\n"
            " match ip address 10\n"
        )
        result = parse_cisco(text)
        (condition,) = result.config.route_maps["M"].clauses[0].matches
        assert condition == MatchAcl("10")

    def test_acl_route_map_evaluation(self):
        from repro.cisco import parse_cisco
        from repro.netmodel import Route

        text = (
            "access-list 10 permit 1.2.3.0 0.0.0.255\n"
            "route-map M permit 10\n"
            " match ip address 10\n"
        )
        config = parse_cisco(text).config
        rm = config.route_maps["M"]
        assert rm.evaluate(Route(prefix=Prefix.parse("1.2.3.0/25")), config).permitted
        assert not rm.evaluate(Route(prefix=Prefix.parse("9.9.9.0/24")), config).permitted

    def test_acl_roundtrips_through_generator(self):
        from repro.cisco import generate_cisco, parse_cisco

        text = (
            "ip access-list standard OUR\n"
            " permit 1.2.3.0 0.0.0.255\n"
            "route-map M permit 10\n"
            " match ip address OUR\n"
        )
        first = parse_cisco(text).config
        regenerated = generate_cisco(first)
        second = parse_cisco(regenerated)
        assert not second.warnings
        assert "OUR" in second.config.access_lists
        assert "match ip address OUR" in regenerated

    def test_acl_lowered_by_translator(self):
        from repro.cisco import parse_cisco
        from repro.juniper import generate_juniper, parse_juniper, translate_cisco_to_juniper

        text = (
            "hostname r1\n"
            "access-list 10 permit 1.2.3.0 0.0.0.255\n"
            "route-map OUT permit 10\n"
            " match ip address 10\n"
            "router bgp 100\n"
            " neighbor 9.0.0.2 remote-as 9\n"
            " neighbor 9.0.0.2 route-map OUT out\n"
        )
        source = parse_cisco(text).config
        juniper, notes = translate_cisco_to_juniper(source)
        assert "10" in notes.range_lowered_lists
        rendered = generate_juniper(juniper)
        assert "route-filter 1.2.3.0/24 orlonger" in rendered
        assert not parse_juniper(rendered).warnings

    def test_campion_detects_acl_behavior_difference(self):
        """§3.1: ACL-based policy differences are detected like route-map
        ones, with an example prefix."""
        import copy

        from repro.cisco import parse_cisco
        from repro.campion import find_policy_differences

        text = (
            "hostname r1\n"
            "access-list 10 permit 1.2.3.0 0.0.0.255\n"
            "route-map OUT permit 10\n"
            " match ip address 10\n"
            "router bgp 100\n"
            " neighbor 9.0.0.2 remote-as 9\n"
            " neighbor 9.0.0.2 route-map OUT out\n"
        )
        source = parse_cisco(text).config
        translated = copy.deepcopy(source)
        translated.access_lists["10"].entries = [
            # Narrower ACL: only the exact /24 network's first half.
            __import__("repro.netmodel", fromlist=["AclEntry"]).AclEntry.from_strings(
                "permit", "1.2.3.0", "0.0.0.127"
            )
        ]
        findings = find_policy_differences(source, translated)
        assert findings
        assert any(
            f.original_action.value == "permit"
            and f.translated_action.value == "deny"
            for f in findings
        )
