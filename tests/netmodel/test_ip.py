"""Tests for IPv4 addressing primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.netmodel.ip import (
    AddressError,
    Ipv4Address,
    Prefix,
    PrefixRange,
)

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
lengths = st.integers(min_value=0, max_value=32)


class TestIpv4Address:
    def test_parse_dotted_quad(self):
        assert Ipv4Address.parse("10.0.0.1").value == (10 << 24) | 1

    def test_str_roundtrip(self):
        assert str(Ipv4Address.parse("192.168.3.44")) == "192.168.3.44"

    def test_zero_address(self):
        assert str(Ipv4Address(0)) == "0.0.0.0"

    def test_broadcast_address(self):
        assert str(Ipv4Address(0xFFFFFFFF)) == "255.255.255.255"

    def test_rejects_octet_out_of_range(self):
        with pytest.raises(AddressError):
            Ipv4Address.parse("256.0.0.1")

    def test_rejects_malformed(self):
        with pytest.raises(AddressError):
            Ipv4Address.parse("10.0.0")

    def test_rejects_garbage(self):
        with pytest.raises(AddressError):
            Ipv4Address.parse("not-an-ip")

    def test_rejects_value_out_of_range(self):
        with pytest.raises(AddressError):
            Ipv4Address(1 << 32)

    def test_ordering(self):
        assert Ipv4Address.parse("1.0.0.1") < Ipv4Address.parse("2.0.0.1")

    @given(addresses)
    def test_parse_str_roundtrip(self, value):
        address = Ipv4Address(value)
        assert Ipv4Address.parse(str(address)) == address


class TestPrefix:
    def test_parse(self):
        prefix = Prefix.parse("1.2.3.0/24")
        assert prefix.length == 24
        assert str(prefix) == "1.2.3.0/24"

    def test_canonicalizes_host_bits(self):
        assert str(Prefix.parse("1.2.3.44/24")) == "1.2.3.0/24"

    def test_zero_length(self):
        assert str(Prefix.parse("1.2.3.4/0")) == "0.0.0.0/0"

    def test_host_prefix(self):
        assert str(Prefix.parse("1.1.1.1/32")) == "1.1.1.1/32"

    def test_rejects_missing_length(self):
        with pytest.raises(AddressError):
            Prefix.parse("1.2.3.0")

    def test_rejects_bad_length(self):
        with pytest.raises(AddressError):
            Prefix.parse("1.2.3.0/33")

    def test_rejects_non_numeric_length(self):
        with pytest.raises(AddressError):
            Prefix.parse("1.2.3.0/abc")

    def test_from_address_mask(self):
        prefix = Prefix.from_address_mask("10.0.1.5", "255.255.255.0")
        assert str(prefix) == "10.0.1.0/24"

    def test_from_address_mask_host(self):
        prefix = Prefix.from_address_mask("1.1.1.1", "255.255.255.255")
        assert str(prefix) == "1.1.1.1/32"

    def test_rejects_non_contiguous_mask(self):
        with pytest.raises(AddressError):
            Prefix.from_address_mask("10.0.0.0", "255.0.255.0")

    def test_mask_string(self):
        assert Prefix.parse("10.0.0.0/8").mask_string() == "255.0.0.0"

    def test_wildcard_string(self):
        assert Prefix.parse("1.2.3.0/24").wildcard_string() == "0.0.0.255"

    def test_contains_more_specific(self):
        assert Prefix.parse("10.0.0.0/8").contains(Prefix.parse("10.1.0.0/16"))

    def test_contains_self(self):
        prefix = Prefix.parse("10.0.0.0/8")
        assert prefix.contains(prefix)

    def test_does_not_contain_shorter(self):
        assert not Prefix.parse("10.0.0.0/16").contains(Prefix.parse("10.0.0.0/8"))

    def test_contains_host_prefix(self):
        prefix = Prefix.parse("1.2.3.0/24")
        assert prefix.contains(Prefix.parse("1.2.3.200/32"))
        assert not prefix.contains(Prefix.parse("1.2.4.1/32"))

    def test_does_not_contain_disjoint(self):
        assert not Prefix.parse("10.0.0.0/8").contains(Prefix.parse("11.0.0.0/16"))

    def test_overlaps_symmetric(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.5.0.0/16")
        assert outer.overlaps(inner)
        assert inner.overlaps(outer)

    def test_no_overlap(self):
        assert not Prefix.parse("10.0.0.0/8").overlaps(Prefix.parse("11.0.0.0/8"))

    @given(addresses, lengths)
    def test_canonical_network_has_no_host_bits(self, value, length):
        prefix = Prefix(value, length)
        rebuilt = Prefix(prefix.network, length)
        assert rebuilt == prefix

    @given(addresses, lengths)
    def test_parse_str_roundtrip(self, value, length):
        prefix = Prefix(value, length)
        assert Prefix.parse(str(prefix)) == prefix


class TestPrefixRange:
    def test_exact(self):
        r = PrefixRange.exact(Prefix.parse("1.2.3.0/24"))
        assert r.is_exact()
        assert r.matches(Prefix.parse("1.2.3.0/24"))
        assert not r.matches(Prefix.parse("1.2.3.0/25"))

    def test_ge_without_le_runs_to_32(self):
        r = PrefixRange(Prefix.parse("1.2.3.0/24"), 24, 32)
        assert r.matches(Prefix.parse("1.2.3.0/24"))
        assert r.matches(Prefix.parse("1.2.3.128/25"))
        assert r.matches(Prefix.parse("1.2.3.7/32"))
        assert not r.matches(Prefix.parse("1.2.0.0/16"))

    def test_orlonger(self):
        r = PrefixRange.orlonger(Prefix.parse("10.0.0.0/8"))
        assert r.matches(Prefix.parse("10.1.2.0/24"))

    def test_invalid_band_rejected(self):
        with pytest.raises(AddressError):
            PrefixRange(Prefix.parse("1.2.3.0/24"), 23, 32)

    def test_inverted_band_rejected(self):
        with pytest.raises(AddressError):
            PrefixRange(Prefix.parse("1.2.3.0/24"), 30, 28)

    def test_matches_respects_cone(self):
        r = PrefixRange(Prefix.parse("1.2.3.0/24"), 25, 30)
        assert r.matches(Prefix.parse("1.2.3.0/25"))
        assert not r.matches(Prefix.parse("1.2.4.0/25"))
        assert not r.matches(Prefix.parse("1.2.3.0/24"))
        assert not r.matches(Prefix.parse("1.2.3.0/31"))

    def test_intersect_same_base(self):
        base = Prefix.parse("1.2.3.0/24")
        left = PrefixRange(base, 24, 28)
        right = PrefixRange(base, 26, 32)
        common = left.intersect(right)
        assert common == PrefixRange(base, 26, 28)

    def test_intersect_nested_bases(self):
        outer = PrefixRange(Prefix.parse("10.0.0.0/8"), 8, 32)
        inner = PrefixRange(Prefix.parse("10.5.0.0/16"), 16, 24)
        common = outer.intersect(inner)
        assert common == inner

    def test_intersect_disjoint_is_none(self):
        left = PrefixRange.exact(Prefix.parse("10.0.0.0/8"))
        right = PrefixRange.exact(Prefix.parse("11.0.0.0/8"))
        assert left.intersect(right) is None

    def test_intersect_empty_band_is_none(self):
        base = Prefix.parse("1.2.3.0/24")
        left = PrefixRange(base, 24, 25)
        right = PrefixRange(base, 27, 32)
        assert left.intersect(right) is None

    def test_subtract_disjoint_returns_self(self):
        left = PrefixRange.exact(Prefix.parse("10.0.0.0/8"))
        right = PrefixRange.exact(Prefix.parse("11.0.0.0/8"))
        assert left.subtract(right) == [left]

    def test_subtract_band(self):
        base = Prefix.parse("1.2.3.0/24")
        left = PrefixRange(base, 24, 32)
        right = PrefixRange(base, 26, 28)
        pieces = left.subtract(right)
        assert PrefixRange(base, 24, 25) in pieces
        assert PrefixRange(base, 29, 32) in pieces

    def test_subtract_self_is_empty(self):
        r = PrefixRange(Prefix.parse("1.2.3.0/24"), 24, 32)
        assert r.subtract(r) == []

    def test_subtract_inner_cone_leaves_siblings(self):
        outer = PrefixRange(Prefix.parse("1.2.2.0/23"), 24, 24)
        inner = PrefixRange(Prefix.parse("1.2.3.0/24"), 24, 24)
        pieces = outer.subtract(inner)
        # /24s under 1.2.2.0/23 other than 1.2.3.0/24: just 1.2.2.0/24.
        matched = [p for p in pieces if p.matches(Prefix.parse("1.2.2.0/24"))]
        assert matched
        assert all(not p.matches(Prefix.parse("1.2.3.0/24")) for p in pieces)

    def test_str_exact(self):
        assert str(PrefixRange.exact(Prefix.parse("1.2.3.0/24"))) == "1.2.3.0/24"

    def test_str_banded(self):
        r = PrefixRange(Prefix.parse("1.2.3.0/24"), 25, 32)
        assert str(r) == "1.2.3.0/24 ge 25 le 32"


# Hypothesis strategies building consistent ranges.
@st.composite
def prefix_ranges(draw):
    length = draw(st.integers(min_value=0, max_value=28))
    network = draw(addresses)
    base = Prefix(network, length)
    low = draw(st.integers(min_value=length, max_value=32))
    high = draw(st.integers(min_value=low, max_value=32))
    return PrefixRange(base, low, high)


@st.composite
def prefixes(draw):
    return Prefix(draw(addresses), draw(lengths))


class TestPrefixRangeProperties:
    @given(prefix_ranges(), prefix_ranges(), prefixes())
    def test_subtract_semantics(self, left, right, candidate):
        """x in (left - right) iff x in left and x not in right."""
        pieces = left.subtract(right)
        in_difference = any(piece.matches(candidate) for piece in pieces)
        expected = left.matches(candidate) and not right.matches(candidate)
        assert in_difference == expected

    @given(prefix_ranges(), prefix_ranges(), prefixes())
    def test_intersect_semantics(self, left, right, candidate):
        """x in (left ∩ right) iff x in both."""
        common = left.intersect(right)
        in_common = common is not None and common.matches(candidate)
        expected = left.matches(candidate) and right.matches(candidate)
        assert in_common == expected
