"""Tests for snapshots and vendor detection."""

from repro.batfish import Snapshot, detect_vendor
from repro.cisco import generate_cisco
from repro.netmodel import Vendor
from repro.sampleconfigs import BATFISH_EXAMPLE_CISCO

_JUNIPER = """\
system { host-name j1; }
routing-options { autonomous-system 100; }
protocols { bgp { group p { neighbor 2.3.4.5 { peer-as 200; } } } }
"""


class TestDetectVendor:
    def test_cisco(self):
        assert detect_vendor(BATFISH_EXAMPLE_CISCO) is Vendor.CISCO

    def test_juniper(self):
        assert detect_vendor(_JUNIPER) is Vendor.JUNIPER

    def test_small_cisco_snippet(self):
        assert detect_vendor("router bgp 1\n neighbor 1.0.0.2 remote-as 2\n") is (
            Vendor.CISCO
        )


class TestSnapshot:
    def test_from_texts_parses_both_vendors(self):
        snapshot = Snapshot.from_texts(
            {"c1.cfg": BATFISH_EXAMPLE_CISCO, "j1.cfg": _JUNIPER}
        )
        assert snapshot.configs["c1.cfg"].vendor is Vendor.CISCO
        assert snapshot.configs["j1.cfg"].vendor is Vendor.JUNIPER

    def test_hostname_defaults_to_filename(self):
        snapshot = Snapshot.from_texts({"r9.cfg": "router bgp 1\n"})
        assert snapshot.configs["r9.cfg"].hostname == "r9"

    def test_junos_hostname_defaults_to_filename(self):
        nameless = _JUNIPER.replace("system { host-name j1; }\n", "")
        snapshot = Snapshot.from_texts({"j9.conf": nameless, "j1.conf": _JUNIPER})
        assert snapshot.configs["j9.conf"].vendor is Vendor.JUNIPER
        assert snapshot.configs["j9.conf"].hostname == "j9"
        assert snapshot.configs["j1.conf"].hostname == "j1"

    def test_warnings_collected_per_file(self):
        snapshot = Snapshot.from_texts(
            {"good.cfg": "hostname g\n", "bad.cfg": "exit\nrouter bgp 1\n"}
        )
        assert snapshot.warnings["bad.cfg"]
        assert snapshot.warnings["good.cfg"] == []

    def test_generated_star_parses_clean(self, star7_configs):
        snapshot = Snapshot.from_texts(
            {f"{name}.cfg": generate_cisco(cfg) for name, cfg in star7_configs.items()}
        )
        assert all(found == [] for found in snapshot.warnings.values())

    def test_undefined_references_of_parsed_file(self):
        text = (
            "router bgp 1\n"
            " neighbor 1.0.0.2 remote-as 2\n"
            " neighbor 1.0.0.2 route-map GHOST out\n"
        )
        snapshot = Snapshot.from_texts({"r.cfg": text})
        assert snapshot.configs["r.cfg"].undefined_references() == ["route-map GHOST"]

    def test_add_file_replaces(self):
        snapshot = Snapshot.from_texts({"r.cfg": "exit\n"})
        assert snapshot.warnings["r.cfg"]
        snapshot.add_file("r.cfg", "router bgp 1\n")
        assert snapshot.warnings["r.cfg"] == []
