"""End-to-end coverage of the second bundled config.

Exercises the features the primary config does not: standard ACLs as
route filters, AS-path access lists, local preference, and AS-path
prepending — all through the full parse → translate → render → reparse →
Campion pipeline.
"""


from repro.campion import compare_configs
from repro.cisco import generate_cisco, parse_cisco
from repro.juniper import generate_juniper, parse_juniper, translate_cisco_to_juniper
from repro.netmodel import Prefix, Route, path_through
from repro.sampleconfigs import BATFISH_EXAMPLE_CISCO_2


class TestSecondSource:
    def test_parses_clean(self):
        result = parse_cisco(BATFISH_EXAMPLE_CISCO_2)
        assert not result.warnings
        assert result.config.hostname == "as200edge1"

    def test_features_present(self):
        config = parse_cisco(BATFISH_EXAMPLE_CISCO_2).config
        assert "20" in config.access_lists
        assert "1" in config.as_path_lists
        assert "from_peer" in config.route_maps

    def test_cisco_roundtrip(self):
        config = parse_cisco(BATFISH_EXAMPLE_CISCO_2).config
        result = parse_cisco(generate_cisco(config))
        assert not result.warnings
        assert set(result.config.route_maps) == set(config.route_maps)

    def test_reference_translation_is_campion_clean(self):
        source = parse_cisco(BATFISH_EXAMPLE_CISCO_2).config
        juniper, _ = translate_cisco_to_juniper(parse_cisco(BATFISH_EXAMPLE_CISCO_2).config)
        rendered = generate_juniper(juniper)
        reparsed = parse_juniper(rendered)
        assert not reparsed.warnings
        report = compare_configs(
            source, reparsed.config, stop_at_first_class=False
        )
        assert report.clean, report.summary()

    def test_as_path_policy_survives_roundtrip(self):
        """from_peer permits only routes whose path starts at AS 400."""
        juniper, _ = translate_cisco_to_juniper(parse_cisco(BATFISH_EXAMPLE_CISCO_2).config)
        rebuilt = parse_juniper(generate_juniper(juniper)).config
        from_peer = rebuilt.route_maps["from_peer"]
        matching = Route(
            prefix=Prefix.parse("40.0.0.0/8"), as_path=path_through([400])
        )
        other = Route(
            prefix=Prefix.parse("40.0.0.0/8"), as_path=path_through([500])
        )
        assert from_peer.evaluate(matching, rebuilt).permitted
        assert from_peer.evaluate(matching, rebuilt).route.local_pref == 200
        assert not from_peer.evaluate(other, rebuilt).permitted

    def test_acl_export_policy_survives_roundtrip(self):
        juniper, _ = translate_cisco_to_juniper(parse_cisco(BATFISH_EXAMPLE_CISCO_2).config)
        rebuilt = parse_juniper(generate_juniper(juniper)).config
        to_upstream = rebuilt.route_maps["to_upstream"]
        inside = Route(prefix=Prefix.parse("20.1.0.0/16"))
        result = to_upstream.evaluate(inside, rebuilt)
        assert result.permitted
        assert result.route.as_path.asns == (200, 200)

    def test_export_policy_guarded_against_igp_leak(self):
        """The always-guard rule: the translated export policy must not
        export OSPF/connected routes the Cisco config never redistributed."""
        from repro.netmodel import Protocol

        juniper, notes = translate_cisco_to_juniper(parse_cisco(BATFISH_EXAMPLE_CISCO_2).config)
        assert "to_upstream" in notes.guarded_export_policies
        rebuilt = parse_juniper(generate_juniper(juniper)).config
        to_upstream = rebuilt.route_maps["to_upstream"]
        igp_route = Route(
            prefix=Prefix.parse("20.1.0.0/16"), protocol=Protocol.CONNECTED
        )
        assert not to_upstream.evaluate(igp_route, rebuilt).permitted

    def test_shorter_aligned_prefixes_match_acl_cone(self):
        """The ACL exactness fix: 20.0.0.0/6 and /7 canonicalize to the
        ACL's base address and must stay matched after translation."""
        source = parse_cisco(BATFISH_EXAMPLE_CISCO_2).config
        juniper, _ = translate_cisco_to_juniper(parse_cisco(BATFISH_EXAMPLE_CISCO_2).config)
        rebuilt = parse_juniper(generate_juniper(juniper)).config
        for candidate in ("20.0.0.0/6", "20.0.0.0/7", "20.0.0.0/8"):
            route = Route(prefix=Prefix.parse(candidate))
            original = source.route_maps["to_upstream"].evaluate(route, source)
            translated = rebuilt.route_maps["to_upstream"].evaluate(
                route, rebuilt
            )
            assert original.action is translated.action, candidate
