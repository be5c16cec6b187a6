"""Tests for attribute differences, policy differences, and the differ."""

import pytest

from repro.campion import (
    compare_configs,
    find_attribute_differences,
    find_policy_differences,
    find_redistribution_differences,
    junos_style_name,
    pair_interfaces,
)
from repro.juniper import translate_cisco_to_juniper
from repro.netmodel import Action
from repro.netmodel.routing_policy import MatchProtocol, SetMed
from repro.sampleconfigs import load_translation_source


@pytest.fixture()
def pair():
    source = load_translation_source()
    translated, _ = translate_cisco_to_juniper(load_translation_source())
    return source, translated


class TestCorrespondence:
    def test_junos_style_name(self):
        assert junos_style_name("Loopback0") == "lo0.0"
        assert junos_style_name("GigabitEthernet0/0") == "ge-0/0.0"

    def test_pair_by_address(self, pair):
        source, translated = pair
        translated.interfaces["lo0"] = translated.interfaces.pop("Loopback0")
        translated.interfaces["lo0"].name = "lo0"
        pairs, only_original, only_translated = pair_interfaces(
            source, translated
        )
        assert not only_original and not only_translated
        matched = {p.original.name: p.translated.name for p in pairs}
        assert matched["Loopback0"] == "lo0"

    def test_unmatched_reported(self, pair):
        source, translated = pair
        del translated.interfaces["Loopback0"]
        _, only_original, _ = pair_interfaces(source, translated)
        assert [i.name for i in only_original] == ["Loopback0"]


class TestAttributeDifferences:
    def test_clean_pair_has_none(self, pair):
        source, translated = pair
        assert find_attribute_differences(source, translated) == []

    def test_ospf_cost_difference_is_table1_example(self, pair):
        source, translated = pair
        translated.interfaces["Loopback0"].ospf_cost = None
        findings = find_attribute_differences(source, translated)
        (finding,) = findings
        text = finding.describe()
        assert "OSPF link" in text
        assert "cost set to 1" in text
        assert "cost set to 0" in text

    def test_passive_difference(self, pair):
        source, translated = pair
        translated.ospf.passive_interfaces.remove("Loopback0")
        findings = find_attribute_differences(source, translated)
        assert any("passive" in f.attribute for f in findings)

    def test_remote_as_difference(self, pair):
        source, translated = pair
        translated.bgp.neighbors["2.3.4.5"].remote_as = 999
        findings = find_attribute_differences(source, translated)
        assert any(f.attribute == "remote AS" for f in findings)

    def test_router_id_difference(self, pair):
        source, translated = pair
        from repro.netmodel import Ipv4Address

        translated.bgp.router_id = Ipv4Address.parse("9.9.9.9")
        findings = find_attribute_differences(source, translated)
        assert any(f.attribute == "router id" for f in findings)

    def test_interface_address_difference(self, pair):
        source, translated = pair
        from repro.netmodel import Ipv4Address

        translated.interfaces["GigabitEthernet0/0"].address = Ipv4Address.parse(
            "2.3.4.9"
        )
        findings = find_attribute_differences(source, translated)
        # Address mismatch breaks pairing-by-address but name matching
        # still pairs them, reporting the address difference.
        assert any(f.attribute == "ip address" for f in findings)


class TestPolicyDifferences:
    def test_clean_pair_has_none(self, pair):
        source, translated = pair
        assert find_policy_differences(source, translated) == []

    def test_med_difference_detected(self, pair):
        source, translated = pair
        for clause in translated.route_maps["to_provider"].clauses:
            clause.sets = [s for s in clause.sets if not isinstance(s, SetMed)]
        findings = find_policy_differences(source, translated)
        assert any("MED" in f.transform_detail for f in findings)

    def test_unguarded_export_reported_as_redistribution(self, pair):
        """Removing 'from protocol' guards makes the translation export
        connected routes the original never redistributed (§3.2)."""
        source, translated = pair
        for clause in translated.route_maps["to_provider"].clauses:
            clause.matches = [
                c for c in clause.matches if not isinstance(c, MatchProtocol)
            ]
        findings = find_redistribution_differences(source, translated)
        assert findings
        connected = [
            f for f in findings if "connected" in f.direction
        ]
        assert connected
        assert connected[0].original_action is Action.DENY
        assert connected[0].translated_action is Action.PERMIT

    def test_finding_describe_matches_table1_formula(self, pair):
        source, translated = pair
        translated.route_maps["to_provider"].clauses = []
        findings = find_policy_differences(source, translated)
        text = findings[0].describe()
        assert "performs the following action" in text
        assert "2.3.4.5" in text


class TestDiffer:
    def test_clean(self, pair):
        source, translated = pair
        report = compare_configs(source, translated)
        assert report.clean
        assert report.first_finding() is None

    def test_structure_masks_later_classes(self, pair):
        source, translated = pair
        translated.bgp.neighbors["2.3.4.5"].export_policy = None  # structural
        translated.interfaces["Loopback0"].ospf_cost = 5  # attribute
        report = compare_configs(source, translated)
        assert report.structural
        assert report.attributes == []  # masked

    def test_stop_at_first_class_disabled(self, pair):
        source, translated = pair
        translated.bgp.neighbors["2.3.4.5"].export_policy = None
        translated.interfaces["Loopback0"].ospf_cost = 5
        report = compare_configs(source, translated, stop_at_first_class=False)
        assert report.structural and report.attributes

    def test_compare_after_an_in_place_edit_sees_the_edit(self, pair):
        source, translated = pair
        assert compare_configs(source, translated).clean
        translated.bgp.neighbors["2.3.4.5"].export_policy = None
        report = compare_configs(source, translated)
        assert report.structural
        assert report.first_finding() is report.structural[0]

    def test_summary(self, pair):
        source, translated = pair
        report = compare_configs(source, translated)
        assert "0 structural" in report.summary()
