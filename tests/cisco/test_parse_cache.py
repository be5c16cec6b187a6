"""The memo behind :func:`parse_cisco` and :func:`parse_juniper`: keyed,
bounded, and shared — a hit returns the stored result itself."""

import copy

import pytest

from repro.cisco import parse_cisco
from repro.cisco.parser import _PARSE_MEMO as CISCO_MEMO
from repro.core import toggles
from repro.juniper import parse_juniper
from repro.juniper.parser import _PARSE_MEMO as JUNIPER_MEMO
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
    "cisco": (parse_cisco, CISCO_MEMO, CISCO_TEXT, CISCO_NAMELESS),
    "juniper": (parse_juniper, JUNIPER_MEMO, JUNIPER_TEXT, JUNIPER_NAMELESS),
}


@pytest.fixture(params=sorted(DIALECTS))
def dialect(request):
    parse, memo, text, nameless = DIALECTS[request.param]
    memo.clear()
    yield parse, memo, text, nameless
    memo.clear()


def _uncached(parse, text, **kwargs):
    with toggles.scoped(memoization=False):
        return parse(text, **kwargs)


class TestSharedResult:
    def test_repeat_parse_hits_and_returns_the_same_object(self, dialect):
        parse, memo, text, _ = dialect
        first = parse(text)
        second = parse(text)
        assert (memo.misses, memo.hits) == (1, 1)
        assert second is first
        assert first == _uncached(parse, text)
        assert first.config.hostname == "r7"
        assert len(first.warnings) == 1

    def test_an_edited_copy_leaves_the_memo_intact(self, dialect):
        parse, memo, text, _ = dialect
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

    def test_the_two_dialects_keep_separate_memos(self):
        CISCO_MEMO.clear()
        JUNIPER_MEMO.clear()
        parse_cisco(CISCO_TEXT, filename="r.cfg")
        parse_juniper(CISCO_TEXT, filename="r.cfg")
        assert (CISCO_MEMO.misses, JUNIPER_MEMO.misses) == (1, 1)
        assert len(CISCO_MEMO) == len(JUNIPER_MEMO) == 1


class TestKey:
    def test_filename_is_part_of_the_key(self, dialect):
        parse, memo, text, _ = dialect
        first = parse(text, filename="a.cfg")
        second = parse(text, filename="b.cfg")
        assert memo.misses == 2
        assert second is not first
        assert first.warnings[0].filename == "a.cfg"
        assert second.warnings[0].filename == "b.cfg"

    def test_default_hostname_is_part_of_the_key(self, dialect):
        parse, memo, _, nameless = dialect
        first = parse(nameless, default_hostname="R1")
        second = parse(nameless, default_hostname="R2")
        assert memo.misses == 2
        assert first.config.hostname == "R1"
        assert second.config.hostname == "R2"

    def test_default_hostname_only_names_a_nameless_config(self, dialect):
        parse, _, text, nameless = dialect
        assert parse(text, default_hostname="R1").config.hostname == "r7"
        assert parse(nameless, default_hostname="R1").config.hostname == "R1"
        assert parse(nameless).config.hostname == ""


class TestBound:
    def test_oldest_entry_is_evicted_past_the_bound(self, dialect):
        parse, memo, _, nameless = dialect
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
        self, dialect
    ):
        parse, memo, text, _ = dialect
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
