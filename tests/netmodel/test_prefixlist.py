"""Tests for prefix lists (including the paper's 'ge 24' semantics)."""

from hypothesis import given, strategies as st

from repro.netmodel.ip import Prefix, PrefixRange
from repro.netmodel.prefixlist import PrefixList, PrefixListEntry


def _exact(text):
    return PrefixRange.exact(Prefix.parse(text))


class TestPrefixList:
    def test_permit_exact(self):
        plist = PrefixList("p")
        plist.add("permit", _exact("1.2.3.0/24"))
        assert plist.permits(Prefix.parse("1.2.3.0/24"))
        assert not plist.permits(Prefix.parse("1.2.3.0/25"))

    def test_ge_24_matches_longer(self):
        """The paper's our-networks list: permit 1.2.3.0/24 ge 24."""
        plist = PrefixList("our-networks")
        plist.add("permit", PrefixRange(Prefix.parse("1.2.3.0/24"), 24, 32))
        assert plist.permits(Prefix.parse("1.2.3.0/24"))
        assert plist.permits(Prefix.parse("1.2.3.0/25"))
        assert plist.permits(Prefix.parse("1.2.3.77/32"))
        assert not plist.permits(Prefix.parse("1.2.0.0/16"))

    def test_default_deny(self):
        plist = PrefixList("p")
        plist.add("permit", _exact("1.2.3.0/24"))
        assert not plist.permits(Prefix.parse("9.9.9.0/24"))

    def test_first_match_wins(self):
        plist = PrefixList("p")
        plist.add("deny", _exact("1.2.3.0/24"), seq=5)
        plist.add("permit", PrefixRange.orlonger(Prefix.parse("1.0.0.0/8")), seq=10)
        assert not plist.permits(Prefix.parse("1.2.3.0/24"))
        assert plist.permits(Prefix.parse("1.2.4.0/24"))

    def test_entries_sorted_by_seq(self):
        plist = PrefixList("p")
        plist.add("permit", _exact("2.0.0.0/8"), seq=10)
        plist.add("deny", _exact("1.0.0.0/8"), seq=5)
        assert [entry.seq for entry in plist.entries] == [5, 10]

    def test_auto_sequencing_by_fives(self):
        plist = PrefixList("p")
        first = plist.add("permit", _exact("1.0.0.0/8"))
        second = plist.add("permit", _exact("2.0.0.0/8"))
        assert (first.seq, second.seq) == (5, 10)

    def test_render_cisco_exact(self):
        entry = PrefixListEntry(5, "permit", _exact("1.2.3.0/24"))
        assert entry.render_cisco("p") == "ip prefix-list p seq 5 permit 1.2.3.0/24"

    def test_render_cisco_ge(self):
        entry = PrefixListEntry(
            5, "permit", PrefixRange(Prefix.parse("1.2.3.0/24"), 25, 32)
        )
        assert "ge 25" in entry.render_cisco("p")

    def test_render_cisco_le(self):
        entry = PrefixListEntry(
            5, "permit", PrefixRange(Prefix.parse("10.0.0.0/8"), 8, 24)
        )
        rendered = entry.render_cisco("p")
        assert "le 24" in rendered
        assert "ge" not in rendered

    def test_render_cisco_orlonger_uses_le_32(self):
        entry = PrefixListEntry(
            5, "permit", PrefixRange.orlonger(Prefix.parse("10.0.0.0/8"))
        )
        assert "le 32" in entry.render_cisco("p")

    def test_permitted_ranges_excludes_denied(self):
        plist = PrefixList("p")
        plist.add("deny", _exact("1.2.3.0/24"), seq=5)
        plist.add(
            "permit", PrefixRange(Prefix.parse("1.2.3.0/24"), 24, 32), seq=10
        )
        ranges = plist.permitted_ranges()
        assert all(not r.matches(Prefix.parse("1.2.3.0/24")) for r in ranges)
        assert any(r.matches(Prefix.parse("1.2.3.0/25")) for r in ranges)


@st.composite
def entries(draw):
    action = draw(st.sampled_from(["permit", "deny"]))
    length = draw(st.integers(min_value=8, max_value=28))
    network = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    low = draw(st.integers(min_value=length, max_value=32))
    high = draw(st.integers(min_value=low, max_value=32))
    return (action, PrefixRange(Prefix(network, length), low, high))


@st.composite
def candidate_prefixes(draw):
    return Prefix(
        draw(st.integers(min_value=0, max_value=0xFFFFFFFF)),
        draw(st.integers(min_value=0, max_value=32)),
    )


class TestPrefixListProperties:
    @given(st.lists(entries(), min_size=1, max_size=5), candidate_prefixes())
    def test_permitted_ranges_agree_with_permits(self, items, candidate):
        """The symbolic permitted_ranges() must agree with concrete
        evaluation on every candidate."""
        plist = PrefixList("p")
        for action, prefix_range in items:
            plist.add(action, prefix_range)
        symbolic = any(
            r.matches(candidate) for r in plist.permitted_ranges()
        )
        assert symbolic == plist.permits(candidate)
