"""Tests for the Cisco IOS parser."""

import pytest

from repro.cisco import parse_cisco
from repro.netmodel import (
    Action,
    Community,
    MatchCommunityInline,
    MatchCommunityList,
    MatchPrefixList,
    Prefix,
    Protocol,
    SetCommunity,
    SetLocalPref,
    SetMed,
)


def _parse(text):
    return parse_cisco(text)


class TestHostnameAndInterfaces:
    def test_hostname(self):
        result = _parse("hostname r7\n")
        assert result.config.hostname == "r7"

    def test_hostname_missing_arg_warns(self):
        result = _parse("hostname\n")
        assert result.warnings

    def test_interface_address(self):
        result = _parse(
            "interface eth0/0\n ip address 2.0.0.1 255.255.255.0\n"
        )
        iface = result.config.get_interface("eth0/0")
        assert str(iface.address) == "2.0.0.1"
        assert str(iface.prefix) == "2.0.0.0/24"

    def test_interface_bad_address_warns(self):
        result = _parse("interface eth0\n ip address 999.0.0.1 255.255.255.0\n")
        assert result.warnings

    def test_interface_ospf_cost(self):
        result = _parse("interface Loopback0\n ip ospf cost 1\n")
        assert result.config.get_interface("Loopback0").ospf_cost == 1

    def test_interface_description(self):
        result = _parse("interface eth0\n description to provider AS 200\n")
        assert (
            result.config.get_interface("eth0").description
            == "to provider AS 200"
        )

    def test_interface_shutdown(self):
        result = _parse("interface eth0\n shutdown\n")
        assert result.config.get_interface("eth0").shutdown

    def test_interface_no_shutdown(self):
        result = _parse("interface eth0\n shutdown\n no shutdown\n")
        assert not result.config.get_interface("eth0").shutdown

    def test_unknown_interface_statement_warns(self):
        result = _parse("interface eth0\n mtu 9000\n")
        assert any("unrecognized" in w.comment for w in result.warnings)


class TestBgp:
    BASE = "router bgp 100\n"

    def test_asn(self):
        result = _parse(self.BASE)
        assert result.config.bgp.asn == 100

    def test_router_id(self):
        result = _parse(self.BASE + " bgp router-id 1.1.1.1\n")
        assert str(result.config.bgp.router_id) == "1.1.1.1"

    def test_neighbor_remote_as(self):
        result = _parse(self.BASE + " neighbor 2.3.4.5 remote-as 200\n")
        neighbor = result.config.bgp.get_neighbor("2.3.4.5")
        assert neighbor.remote_as == 200

    def test_neighbor_route_maps(self):
        text = (
            self.BASE
            + " neighbor 2.3.4.5 remote-as 200\n"
            + " neighbor 2.3.4.5 route-map IN_MAP in\n"
            + " neighbor 2.3.4.5 route-map OUT_MAP out\n"
        )
        neighbor = _parse(text).config.bgp.get_neighbor("2.3.4.5")
        assert neighbor.import_policy == "IN_MAP"
        assert neighbor.export_policy == "OUT_MAP"

    def test_neighbor_bad_direction_warns(self):
        text = (
            self.BASE
            + " neighbor 2.3.4.5 remote-as 200\n"
            + " neighbor 2.3.4.5 route-map M sideways\n"
        )
        assert _parse(text).warnings

    def test_neighbor_before_remote_as_warns(self):
        result = _parse(self.BASE + " neighbor 2.3.4.5 route-map M in\n")
        assert any("remote-as" in w.comment for w in result.warnings)

    def test_neighbor_send_community(self):
        text = (
            self.BASE
            + " neighbor 2.3.4.5 remote-as 200\n"
            + " neighbor 2.3.4.5 send-community\n"
        )
        assert _parse(text).config.bgp.get_neighbor("2.3.4.5").send_community

    def test_network_with_mask(self):
        result = _parse(self.BASE + " network 1.2.3.0 mask 255.255.255.0\n")
        assert result.config.bgp.announces(Prefix.parse("1.2.3.0/24"))

    def test_network_cidr(self):
        result = _parse(self.BASE + " network 1.2.3.0/25\n")
        assert result.config.bgp.announces(Prefix.parse("1.2.3.0/25"))

    def test_redistribute_with_route_map(self):
        result = _parse(self.BASE + " redistribute ospf route-map O2B\n")
        (redis,) = result.config.bgp.redistributions
        assert redis.protocol is Protocol.OSPF
        assert redis.route_map == "O2B"

    def test_redistribute_connected_without_map(self):
        result = _parse(self.BASE + " redistribute connected\n")
        (redis,) = result.config.bgp.redistributions
        assert redis.protocol is Protocol.CONNECTED
        assert redis.route_map is None

    def test_redistribute_unknown_protocol_warns(self):
        assert _parse(self.BASE + " redistribute rip\n").warnings


class TestOspf:
    def test_network_statement(self):
        result = _parse(
            "router ospf 1\n network 1.2.3.0 0.0.0.255 area 0\n"
        )
        (stmt,) = result.config.ospf.networks
        assert str(stmt.prefix) == "1.2.3.0/24"
        assert stmt.area == 0

    def test_host_network_statement(self):
        result = _parse("router ospf 1\n network 1.1.1.1 0.0.0.0 area 0\n")
        assert str(result.config.ospf.networks[0].prefix) == "1.1.1.1/32"

    def test_passive_interface(self):
        result = _parse("router ospf 1\n passive-interface Loopback0\n")
        assert result.config.ospf.is_passive("Loopback0")

    def test_router_id(self):
        result = _parse("router ospf 1\n router-id 1.1.1.1\n")
        assert str(result.config.ospf.router_id) == "1.1.1.1"


class TestPrefixLists:
    def test_exact(self):
        result = _parse("ip prefix-list p seq 5 permit 1.2.3.0/24\n")
        (entry,) = result.config.prefix_lists["p"].entries
        assert entry.range.is_exact()
        assert entry.seq == 5

    def test_ge_widens_to_32(self):
        result = _parse("ip prefix-list p seq 5 permit 1.2.3.0/24 ge 24\n")
        (entry,) = result.config.prefix_lists["p"].entries
        assert (entry.range.low, entry.range.high) == (24, 32)

    def test_ge_le_band(self):
        result = _parse("ip prefix-list p permit 10.0.0.0/8 ge 16 le 24\n")
        (entry,) = result.config.prefix_lists["p"].entries
        assert (entry.range.low, entry.range.high) == (16, 24)

    def test_le_alone(self):
        result = _parse("ip prefix-list p permit 10.0.0.0/8 le 24\n")
        (entry,) = result.config.prefix_lists["p"].entries
        assert (entry.range.low, entry.range.high) == (8, 24)

    def test_deny_entry(self):
        result = _parse("ip prefix-list p seq 5 deny 0.0.0.0/0 le 32\n")
        (entry,) = result.config.prefix_lists["p"].entries
        assert entry.action == "deny"

    def test_invalid_band_warns(self):
        result = _parse("ip prefix-list p permit 1.2.3.0/24 ge 20\n")
        assert result.warnings

    def test_missing_action_warns(self):
        assert _parse("ip prefix-list p 1.2.3.0/24\n").warnings

    def test_multiple_entries_accumulate(self):
        text = (
            "ip prefix-list p seq 5 permit 1.0.0.0/8\n"
            "ip prefix-list p seq 10 permit 2.0.0.0/8\n"
        )
        assert len(_parse(text).config.prefix_lists["p"].entries) == 2


class TestCommunityLists:
    def test_numbered_standard(self):
        result = _parse("ip community-list 1 permit 100:1\n")
        clist = result.config.community_lists["1"]
        assert clist.permits([Community(100, 1)])

    def test_named_standard(self):
        result = _parse("ip community-list standard TAGS permit 100:1\n")
        assert "TAGS" in result.config.community_lists

    def test_expanded_regex(self):
        result = _parse("ip community-list expanded E permit 100:.*\n")
        assert result.config.community_lists["E"].permits([Community(100, 9)])

    def test_invalid_value_warns(self):
        """§4.2's Table 3 example: '... permit .+' is wrong syntax for a
        standard community list."""
        result = _parse("ip community-list standard COMM permit .+\n")
        assert any("wrong syntax" in w.comment for w in result.warnings)


class TestRouteMaps:
    def test_clause_action_and_seq(self):
        result = _parse("route-map M deny 100\n")
        clause = result.config.route_maps["M"].get_clause(100)
        assert clause.action is Action.DENY

    def test_match_prefix_list(self):
        result = _parse(
            "route-map M permit 10\n match ip address prefix-list nets\n"
        )
        (condition,) = result.config.route_maps["M"].clauses[0].matches
        assert condition == MatchPrefixList("nets")

    def test_match_community_list(self):
        result = _parse("route-map M permit 10\n match community 1\n")
        (condition,) = result.config.route_maps["M"].clauses[0].matches
        assert condition == MatchCommunityList("1")

    def test_match_community_inline_warns(self):
        """The §4.2 'Match Community' pitfall: a literal value is invalid."""
        result = _parse("route-map M permit 10\n match community 100:1\n")
        (condition,) = result.config.route_maps["M"].clauses[0].matches
        assert condition == MatchCommunityInline(Community(100, 1))
        assert any("community-list name" in w.comment for w in result.warnings)

    def test_multiple_match_statements_in_stanza(self):
        """AND semantics input form: several matches in one stanza parse
        into one clause (the §4.2 trap)."""
        text = (
            "route-map F deny 10\n"
            " match community 2\n"
            " match community 3\n"
        )
        clause = _parse(text).config.route_maps["F"].clauses[0]
        assert len(clause.matches) == 2

    def test_set_community_additive(self):
        result = _parse(
            "route-map M permit 10\n set community 100:1 additive\n"
        )
        (action,) = result.config.route_maps["M"].clauses[0].sets
        assert action == SetCommunity((Community(100, 1),), additive=True)

    def test_set_community_non_additive(self):
        result = _parse("route-map M permit 10\n set community 100:1\n")
        (action,) = result.config.route_maps["M"].clauses[0].sets
        assert not action.additive

    def test_set_metric(self):
        result = _parse("route-map M permit 10\n set metric 50\n")
        assert result.config.route_maps["M"].clauses[0].sets == [SetMed(50)]

    def test_set_local_preference(self):
        result = _parse("route-map M permit 10\n set local-preference 250\n")
        assert result.config.route_maps["M"].clauses[0].sets == [
            SetLocalPref(250)
        ]

    def test_clauses_accumulate_across_stanzas(self):
        text = "route-map M permit 10\nroute-map M deny 20\n"
        assert len(_parse(text).config.route_maps["M"].clauses) == 2

    def test_unknown_match_warns(self):
        result = _parse("route-map M permit 10\n match interface eth0\n")
        assert result.warnings

    def test_unknown_set_warns(self):
        result = _parse("route-map M permit 10\n set weight 100\n")
        assert result.warnings


class TestWarningsAndMisplacement:
    def test_forbidden_cli_keywords_warn(self):
        for keyword in ("exit", "end", "write", "configure terminal", "conf t"):
            result = _parse(keyword + "\n")
            assert any(
                "Interactive CLI" in w.comment for w in result.warnings
            ), keyword

    def test_ip_routing_warns(self):
        result = _parse("ip routing\n")
        assert result.warnings

    def test_misplaced_neighbor_command_warns_generically(self):
        """§4.2: a neighbor command outside router bgp gets a warning
        whose text is deliberately uninformative."""
        result = _parse("neighbor 1.0.0.2 route-map F out\n")
        (warning,) = result.warnings
        assert "unrecognized at this location" in warning.comment

    def test_unknown_top_level_warns(self):
        assert _parse("banner motd hello\n").warnings

    def test_forbidden_keyword_resets_block_context(self):
        """After 'exit', a match line is no longer in the route-map."""
        text = "route-map M permit 10\nexit\n match community 1\n"
        result = _parse(text)
        assert result.config.route_maps["M"].clauses[0].matches == []

    def test_parser_never_raises_on_garbage(self):
        result = _parse("%$#@!\nqwerty uiop\n   indented junk\n")
        assert result.config is not None

    def test_clean_parse_has_no_warnings(self, source_config):
        # The bundled experiment config parses clean (fixture exercises it).
        assert source_config.hostname == "as100border1"


# Every keyword of KEYWORD_CASE_TEXT; names, addresses and values keep
# their case in every variant, so the IR must come out identical.
_KEYWORDS = frozenset(
    """hostname interface ip address ospf cost description shutdown no
    router bgp router-id neighbor remote-as route-map in out send-community
    next-hop-self network mask redistribute connected synchronization
    prefix-list seq permit deny ge le community-list standard expanded
    as-path access-list host any match community set additive metric
    local-preference next-hop prepend routing exit""".split()
)

KEYWORD_CASE_TEXT = """\
hostname Edge1
interface eth0/0
 description Link to ISP
 ip address 2.0.0.1 255.255.255.0
 ip ospf cost 5
 shutdown
 no shutdown
ip prefix-list OWN seq 5 permit 2.0.0.0/16 ge 24 le 28
ip prefix-list OWN deny 0.0.0.0/0 le 32
ip community-list standard TAGS permit 100:1 100:2
ip community-list expanded RX deny _100:.*_
ip as-path access-list 1 permit ^200_
access-list 10 permit host 2.0.0.9
access-list 10 deny any
route-map To_ISP permit 10
 match ip address prefix-list OWN
 match community TAGS
 set community 100:7 additive
 set local-preference 200
 set metric 50
route-map To_ISP deny 20
 match as-path 1
 set ip next-hop 2.0.0.2
 set as-path prepend 100 100
router bgp 100
 bgp router-id 1.1.1.1
 no synchronization
 neighbor 2.0.0.2 remote-as 200
 neighbor 2.0.0.2 route-map To_ISP out
 neighbor 2.0.0.2 send-community
 neighbor 2.0.0.2 next-hop-self
 network 2.0.0.0 mask 255.255.255.0
 redistribute connected route-map To_ISP
ip routing
exit
neighbor 9.9.9.9 remote-as 1
"""


def _recase(text, recase):
    return "\n".join(
        " ".join(
            recase(token) if token in _KEYWORDS else token
            for token in line.split(" ")
        )
        for line in text.split("\n")
    )


class TestKeywordCase:
    """IOS keywords are case-insensitive: ``ROUTER BGP 1``,
    ``IP PREFIX-LIST ...`` and ``Route-Map ...`` parse like lower case."""

    @pytest.mark.parametrize(
        "recase",
        [str.upper, str.title, lambda token: token[:1].upper() + token[1:]],
        ids=["upper", "title", "capitalized"],
    )
    def test_recased_keywords_parse_to_the_same_ir(self, recase):
        variant = _recase(KEYWORD_CASE_TEXT, recase)
        assert variant != KEYWORD_CASE_TEXT
        lower = _parse(KEYWORD_CASE_TEXT)
        recased = _parse(variant)
        assert recased.config == lower.config
        assert [(w.line, w.comment) for w in recased.warnings] == [
            (w.line, w.comment) for w in lower.warnings
        ]
        assert len(lower.warnings) == 3

    def test_fixture_covers_every_statement_kind(self):
        upper = _recase(KEYWORD_CASE_TEXT, str.upper)
        assert "ROUTER BGP 100" in upper and "IP PREFIX-LIST OWN" in upper
        assert "Route-Map To_ISP" in _recase(KEYWORD_CASE_TEXT, str.title)
        config = _parse(KEYWORD_CASE_TEXT).config
        assert config.hostname == "Edge1"
        assert [c.seq for c in config.route_maps["To_ISP"].clauses] == [10, 20]
        assert len(config.route_maps["To_ISP"].clauses[0].sets) == 3
        assert config.bgp.neighbors and config.bgp.redistributions
        assert set(config.prefix_lists) == {"OWN"}
        assert set(config.community_lists) == {"TAGS", "RX"}
        assert set(config.as_path_lists) == {"1"}
        assert set(config.access_lists) == {"10"}
