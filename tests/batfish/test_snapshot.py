"""Tests for snapshots and vendor detection."""

from repro.batfish import Snapshot, detect_vendor
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

    def test_config_by_hostname(self):
        snapshot = Snapshot.from_texts({"x.cfg": BATFISH_EXAMPLE_CISCO})
        assert snapshot.config_by_hostname("as100border1") is not None
        assert snapshot.config_by_hostname("ghost") is None

    def test_warnings_collected_per_file(self):
        snapshot = Snapshot.from_texts({"bad.cfg": "exit\nrouter bgp 1\n"})
        assert snapshot.warnings["bad.cfg"]
        assert snapshot.all_warnings()

    def test_add_file_replaces(self):
        snapshot = Snapshot.from_texts({"r.cfg": "exit\n"})
        assert snapshot.all_warnings()
        snapshot.add_file("r.cfg", "router bgp 1\n")
        assert not snapshot.all_warnings()

    def test_write_and_reload(self, tmp_path):
        snapshot = Snapshot.from_texts({"c1.cfg": BATFISH_EXAMPLE_CISCO})
        directory = snapshot.write_to(tmp_path / "snap")
        reloaded = Snapshot.from_directory(directory)
        assert reloaded.hostnames() == snapshot.hostnames()

    def test_hostnames_sorted(self):
        snapshot = Snapshot.from_texts(
            {"b.cfg": "hostname bbb\n", "a.cfg": "hostname aaa\n"}
        )
        assert snapshot.hostnames() == ["aaa", "bbb"]
