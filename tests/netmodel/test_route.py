"""Tests for the immutable Route value."""

from repro.netmodel import (
    Community,
    Ipv4Address,
    Prefix,
    Protocol,
    Route,
    RouteBuilder,
)
from repro.netmodel.aspath import AsPath


def _route(**kwargs):
    return Route(prefix=Prefix.parse("1.2.3.0/24"), **kwargs)


class TestRouteTransforms:
    def test_default_local_pref(self):
        assert _route().local_pref == 100

    def test_default_protocol_is_bgp(self):
        assert _route().protocol is Protocol.BGP

    def test_community_added_is_additive(self):
        route = _route(communities=frozenset({Community(1, 1)}))
        updated = RouteBuilder(route).add_community(Community(2, 2)).freeze()
        assert updated.communities == {Community(1, 1), Community(2, 2)}

    def test_communities_replaced_drops_existing(self):
        route = _route(communities=frozenset({Community(1, 1)}))
        updated = RouteBuilder(route).set_communities((Community(2, 2),)).freeze()
        assert updated.communities == {Community(2, 2)}

    def test_original_unchanged_by_transforms(self):
        route = _route()
        RouteBuilder(route).set_med(99).freeze()
        assert route.med == 0

    def test_med(self):
        assert RouteBuilder(_route()).set_med(50).freeze().med == 50

    def test_local_pref(self):
        assert RouteBuilder(_route()).set_local_pref(200).freeze().local_pref == 200

    def test_next_hop(self):
        hop = Ipv4Address.parse("9.9.9.9")
        assert RouteBuilder(_route()).set_next_hop(hop).freeze().next_hop == hop

    def test_as_prepended(self):
        route = RouteBuilder(_route()).prepend_as(100).prepend_as(200).freeze()
        assert route.as_path.asns == (200, 100)

    def test_as_prepended_count(self):
        assert RouteBuilder(_route()).prepend_as(7, count=2).freeze().as_path.asns == (7, 7)

    def test_protocol(self):
        assert RouteBuilder(_route()).set_protocol(Protocol.OSPF).freeze().protocol is Protocol.OSPF

    def test_describe_mentions_prefix_and_communities(self):
        route = _route(communities=frozenset({Community(100, 1)}))
        text = route.describe()
        assert "1.2.3.0/24" in text
        assert "100:1" in text

    def test_describe_empty_communities(self):
        assert "{}" in _route().describe()

    def test_decision_slice_prefers_the_better_route(self):
        assert _route(local_pref=200).decision_slice() < _route().decision_slice()
        shorter = _route(as_path=AsPath.of((1,)))
        longer = _route(as_path=AsPath.of((2, 1)))
        assert shorter.decision_slice() < longer.decision_slice()
        assert _route(med=1).decision_slice() < _route(med=2).decision_slice()
        assert _route(med=3).decision_slice() == (-100, 0, 3)

    def test_equality_is_structural(self):
        assert _route() == _route()
        assert _route(med=1) != _route()
