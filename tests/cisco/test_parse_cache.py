"""The memo behind :func:`parse_cisco`: keyed, bounded, and shared — a
hit returns the stored result itself.  :func:`parse_juniper` has no memo
(the translation loop's ``draft-finding`` memo answers repeated drafts),
so every call returns a fresh result."""

import copy

import pytest

from repro.cisco import parse_cisco
from repro.cisco.parser import _PARSE_MEMO as CISCO_MEMO
from repro.core import toggles
from repro.juniper import parse_juniper
from repro.netmodel import Prefix

CISCO_TEXT = """\
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

CISCO_NAMELESS = "interface eth0/0\n ip address 2.0.0.1 255.255.255.0\n"

# ``2.0.0.0/24-32`` is GPT-4's invented prefix-list syntax: one warning,
# like the Cisco text's ``ip routing``.
JUNIPER_TEXT = """\
system { host-name r7; }
interfaces { eth0 { unit 0 { family inet { address 2.0.0.1/24; } } } }
routing-options { autonomous-system 100; }
policy-options {
    prefix-list OWN { 2.0.0.0/24-32; }
    policy-statement TO_ISP {
        term t1 { from { prefix-list OWN; } then { local-preference 200; accept; } }
    }
}
protocols { bgp { group isp { neighbor 2.0.0.2 { peer-as 200; export TO_ISP; } } } }
"""

JUNIPER_NAMELESS = (
    "interfaces { eth0 { unit 0 { family inet { address 2.0.0.1/24; } } } }\n"
)

DIALECTS = {
    "cisco": (parse_cisco, CISCO_TEXT, CISCO_NAMELESS),
    "juniper": (parse_juniper, JUNIPER_TEXT, JUNIPER_NAMELESS),
}


@pytest.fixture
def cisco():
    CISCO_MEMO.clear()
    yield parse_cisco, CISCO_MEMO, CISCO_TEXT, CISCO_NAMELESS
    CISCO_MEMO.clear()


def _uncached(parse, text, **kwargs):
    with toggles.scoped(memoization=False):
        return parse(text, **kwargs)


class TestSharedResult:
    def test_repeat_parse_hits_and_returns_the_same_object(self, cisco):
        parse, memo, text, _ = cisco
        first = parse(text)
        second = parse(text)
        assert (memo.misses, memo.hits) == (1, 1)
        assert second is first
        assert first == _uncached(parse, text)
        assert first.config.hostname == "r7"
        assert len(first.warnings) == 1

    def test_an_edited_copy_leaves_the_memo_intact(self, cisco):
        parse, memo, text, _ = cisco
        edited = copy.deepcopy(parse(text))
        edited.config.hostname = "mutated"
        edited.config.bgp.neighbors.clear()
        edited.config.bgp.networks.append(Prefix.parse("9.9.9.0/24"))
        edited.config.route_maps["TO_ISP"].clauses[0].sets.clear()
        edited.config.prefix_lists["OWN"].entries.clear()
        edited.diagnostics.warnings.clear()
        again = parse(text)
        assert memo.hits == 1
        assert again == _uncached(parse, text)
        assert again.config.hostname == "r7"
        assert len(again.warnings) == 1

class TestKey:
    def test_filename_is_part_of_the_key(self, cisco):
        parse, memo, text, _ = cisco
        first = parse(text, filename="a.cfg")
        second = parse(text, filename="b.cfg")
        assert memo.misses == 2
        assert second is not first
        assert first.warnings[0].filename == "a.cfg"
        assert second.warnings[0].filename == "b.cfg"

    def test_default_hostname_is_part_of_the_key(self, cisco):
        parse, memo, _, nameless = cisco
        first = parse(nameless, default_hostname="R1")
        second = parse(nameless, default_hostname="R2")
        assert memo.misses == 2
        assert first.config.hostname == "R1"
        assert second.config.hostname == "R2"

    @pytest.mark.parametrize("name", sorted(DIALECTS))
    def test_default_hostname_only_names_a_nameless_config(self, name):
        parse, text, nameless = DIALECTS[name]
        assert parse(text, default_hostname="R1").config.hostname == "r7"
        assert parse(nameless, default_hostname="R1").config.hostname == "R1"
        assert parse(nameless).config.hostname == ""


class TestBound:
    def test_oldest_entry_is_evicted_past_the_bound(self, cisco):
        parse, memo, _, nameless = cisco
        texts = [f"{nameless}# {index}\n" for index in range(memo.max_entries + 1)]
        for text in texts:
            parse(text)
        assert len(memo) == memo.max_entries == 128
        parse(texts[-1])
        assert memo.hits == 1
        parse(texts[0])
        assert memo.hits == 1


class TestMemoizationOff:
    def test_every_call_returns_a_fresh_result_and_nothing_is_stored(
        self, cisco
    ):
        parse, memo, text, _ = cisco
        expected = parse(text, filename="r7.cfg", default_hostname="R7")
        memo.clear()
        with toggles.scoped(memoization=False):
            results = [
                parse(text, filename="r7.cfg", default_hostname="R7")
                for _ in range(3)
            ]
        assert (memo.hits, memo.misses) == (0, 3)
        assert len(memo) == 0
        assert all(result == expected for result in results)
        assert len({id(result) for result in results}) == 3
        assert all(result is not expected for result in results)


class TestJuniperUnmemoized:
    def test_every_call_parses_afresh(self):
        first = parse_juniper(JUNIPER_TEXT, filename="a.conf")
        second = parse_juniper(JUNIPER_TEXT, filename="a.conf")
        assert second is not first
        assert second == first
        assert first.config.hostname == "r7"
        assert len(first.warnings) == 1

    def test_editing_a_result_leaves_the_next_parse_intact(self):
        edited = parse_juniper(JUNIPER_TEXT)
        edited.config.hostname = "mutated"
        edited.config.bgp.neighbors.clear()
        edited.diagnostics.warnings.clear()
        again = parse_juniper(JUNIPER_TEXT)
        assert again.config.hostname == "r7"
        assert again.config.bgp.neighbors
        assert len(again.warnings) == 1

    def test_warnings_carry_the_filename(self):
        for filename in ("a.conf", "b.conf"):
            result = parse_juniper(JUNIPER_TEXT, filename=filename)
            assert result.warnings[0].filename == filename
