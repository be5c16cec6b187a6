"""The memo behind :func:`parse_cisco`: keyed, bounded, copy-on-hit."""

import pytest

from repro.cisco import parse_cisco
from repro.cisco.parser import _PARSE_MEMO
from repro.core import toggles
from repro.netmodel import Prefix

TEXT = """\
hostname r7
interface eth0/0
 ip address 2.0.0.1 255.255.255.0
ip prefix-list OWN seq 5 permit 2.0.0.0/24
route-map TO_ISP permit 10
 match ip address prefix-list OWN
 set local-preference 200
router bgp 100
 neighbor 2.0.0.2 remote-as 200
 neighbor 2.0.0.2 route-map TO_ISP out
 network 2.0.0.0 mask 255.255.255.0
ip routing
"""

NAMELESS = "interface eth0/0\n ip address 2.0.0.1 255.255.255.0\n"


@pytest.fixture(autouse=True)
def _empty_memo():
    _PARSE_MEMO.clear()
    yield
    _PARSE_MEMO.clear()


def _uncached(text, **kwargs):
    with toggles.scoped(memoization=False):
        return parse_cisco(text, **kwargs)


class TestCopyOnHit:
    def test_repeat_parse_hits(self):
        first = parse_cisco(TEXT)
        second = parse_cisco(TEXT)
        assert (_PARSE_MEMO.misses, _PARSE_MEMO.hits) == (1, 1)
        assert second == first == _uncached(TEXT)
        assert second.config is not first.config

    def test_mutated_hit_leaves_the_next_hit_fresh(self):
        parse_cisco(TEXT)
        hit = parse_cisco(TEXT)
        hit.config.hostname = "mutated"
        hit.config.bgp.neighbors.clear()
        hit.config.bgp.networks.append(Prefix.parse("9.9.9.0/24"))
        hit.config.route_maps["TO_ISP"].clauses[0].sets.clear()
        hit.config.prefix_lists["OWN"].entries.clear()
        hit.diagnostics.warnings.clear()
        hit.diagnostics.warn(1, "planted", "planted warning")
        again = parse_cisco(TEXT)
        assert _PARSE_MEMO.hits == 2
        assert again == _uncached(TEXT)
        assert again.config.hostname == "r7"
        assert len(again.warnings) == 1

    def test_mutated_miss_result_leaves_the_memo_intact(self):
        miss = parse_cisco(TEXT)
        miss.config.interfaces.clear()
        miss.diagnostics.warnings.clear()
        assert parse_cisco(TEXT) == _uncached(TEXT)


class TestKey:
    def test_filename_is_part_of_the_key(self):
        first = parse_cisco(TEXT, filename="a.cfg")
        second = parse_cisco(TEXT, filename="b.cfg")
        assert _PARSE_MEMO.misses == 2
        assert first.warnings[0].filename == "a.cfg"
        assert second.warnings[0].filename == "b.cfg"

    def test_default_hostname_is_part_of_the_key(self):
        first = parse_cisco(NAMELESS, default_hostname="R1")
        second = parse_cisco(NAMELESS, default_hostname="R2")
        assert _PARSE_MEMO.misses == 2
        assert first.config.hostname == "R1"
        assert second.config.hostname == "R2"

    def test_default_hostname_only_names_a_nameless_config(self):
        assert parse_cisco(TEXT, default_hostname="R1").config.hostname == "r7"
        assert parse_cisco(NAMELESS, default_hostname="R1").config.hostname == "R1"
        assert parse_cisco(NAMELESS).config.hostname == ""


class TestBound:
    def test_oldest_entry_is_evicted_past_the_bound(self):
        texts = [
            f"hostname r{index}\n" for index in range(_PARSE_MEMO.max_entries + 1)
        ]
        for text in texts:
            parse_cisco(text)
        assert len(_PARSE_MEMO) == _PARSE_MEMO.max_entries == 128
        parse_cisco(texts[-1])
        assert _PARSE_MEMO.hits == 1
        parse_cisco(texts[0])
        assert _PARSE_MEMO.hits == 1


class TestMemoizationOff:
    def test_every_lookup_misses_and_nothing_is_stored(self):
        expected = parse_cisco(TEXT, filename="r7.cfg", default_hostname="R7")
        _PARSE_MEMO.clear()
        with toggles.scoped(memoization=False):
            results = [
                parse_cisco(TEXT, filename="r7.cfg", default_hostname="R7")
                for _ in range(3)
            ]
        assert (_PARSE_MEMO.hits, _PARSE_MEMO.misses) == (0, 3)
        assert len(_PARSE_MEMO) == 0
        assert all(result == expected for result in results)
