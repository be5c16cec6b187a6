"""RouteBuilder and the interned route datapath."""

import copy
import pickle

import pytest

from repro.netmodel import (
    Community,
    Ipv4Address,
    Prefix,
    Route,
    RouteBuilder,
    intern_communities,
)
from repro.netmodel.aspath import AsPath
from repro.netmodel.route import ROUTES_REUSED
from repro.netmodel.routebuilder import export_route
from repro.netmodel.routing_policy import (
    SetAsPathPrepend,
    SetCommunity,
    SetLocalPref,
    SetMed,
    SetNextHop,
)


def _route(**kwargs):
    return Route(prefix=Prefix.parse("1.2.3.0/24"), **kwargs)


class TestBuilderTransactions:
    def test_accumulates_and_freezes_once(self):
        builder = RouteBuilder(_route())
        builder.set_med(50)
        builder.set_local_pref(200)
        builder.prepend_as(7, 2)
        builder.add_community(Community(1, 1))
        builder.set_next_hop(Ipv4Address.parse("9.9.9.9"))
        frozen = builder.freeze()
        assert frozen.med == 50
        assert frozen.local_pref == 200
        assert frozen.as_path.asns == (7, 7)
        assert frozen.communities == {Community(1, 1)}
        assert frozen.next_hop == Ipv4Address.parse("9.9.9.9")

    def test_untouched_builder_freezes_to_the_base_object(self):
        route = _route()
        before = ROUTES_REUSED.value
        assert RouteBuilder(route).freeze() is route
        assert ROUTES_REUSED.value == before + 1

    def test_later_prepends_go_in_front(self):
        builder = RouteBuilder(_route())
        builder.prepend_as(100)
        builder.prepend_as(200)
        assert builder.freeze().as_path.asns == (200, 100)

    def test_builder_duck_types_the_route_surface(self):
        builder = RouteBuilder(_route(communities=frozenset({Community(1, 1)})))
        assert builder.prefix == Prefix.parse("1.2.3.0/24")
        assert builder.communities == {Community(1, 1)}
        builder.add_community(Community(2, 2))
        assert builder.communities == {Community(1, 1), Community(2, 2)}
        builder.prepend_as(5)
        assert builder.as_path.asns == (5,)
        assert builder.path_contains(5)
        assert not builder.path_contains(6)

    def test_set_actions_apply_to_one_builder(self):
        builder = RouteBuilder(_route())
        for action in (
            SetMed(10),
            SetLocalPref(300),
            SetNextHop(Ipv4Address.parse("8.8.8.8")),
            SetAsPathPrepend(65000, 2),
            SetCommunity((Community(3, 3),), additive=True),
        ):
            action.apply_to(builder)
        frozen = builder.freeze()
        assert frozen.med == 10
        assert frozen.local_pref == 300
        assert frozen.as_path.asns == (65000, 65000)
        assert frozen.communities == {Community(3, 3)}

    def test_non_additive_set_community_replaces(self):
        builder = RouteBuilder(_route(communities=frozenset({Community(1, 1)})))
        SetCommunity((Community(2, 2), Community(3, 3))).apply_to(builder)
        assert builder.freeze().communities == {Community(2, 2), Community(3, 3)}

    def test_base_route_never_mutates(self):
        route = _route()
        builder = RouteBuilder(route)
        builder.set_med(99)
        builder.add_community(Community(9, 9))
        builder.freeze()
        assert route.med == 0
        assert route.communities == frozenset()


class TestExportFastPath:
    def test_export_route_matches_the_builder(self):
        base = _route(
            as_path=AsPath.of((7,)),
            communities=frozenset({Community(100, 1)}),
            med=5,
            local_pref=200,
        )
        hop = Ipv4Address.parse("1.0.0.1")
        fast = export_route(base, 3, hop)
        built = RouteBuilder(base).prepend_as(3).set_next_hop(hop).freeze()
        assert fast == built
        assert fast.as_path.asns == (3, 7)
        assert fast.next_hop == hop
        assert base.as_path.asns == (7,)


class TestRouteSerialization:
    def test_route_round_trips_through_pickle(self):
        route = (
            RouteBuilder(_route(communities=frozenset({Community(1, 1)})))
            .prepend_as(9)
            .set_med(4)
            .freeze()
        )
        clone = pickle.loads(pickle.dumps(route))
        assert clone == route
        assert hash(clone) == hash(route)
        # Unpickling re-interns onto this process's flyweights.
        assert clone.as_path is route.as_path
        assert clone.communities is route.communities

    def test_copy_returns_the_same_immutable_value(self):
        route = _route(med=3)
        assert copy.copy(route) is route
        assert copy.deepcopy({"r": route})["r"] is route


class TestInterningInvariants:
    def test_same_value_routes_share_as_path_instances(self):
        one = RouteBuilder(_route()).prepend_as(1).prepend_as(2).freeze()
        two = RouteBuilder(_route()).prepend_as(1).prepend_as(2).freeze()
        assert one.as_path is two.as_path

    def test_same_value_routes_share_community_instances(self):
        members = frozenset({Community(1, 1), Community(2, 2)})
        one = _route(communities=frozenset(members))
        two = _route(communities=set(members))
        assert one.communities is two.communities

    def test_intern_communities_is_value_keyed(self):
        a = intern_communities(frozenset({Community(5, 5)}))
        b = intern_communities({Community(5, 5)})
        assert a is b
        assert intern_communities(()) is intern_communities(frozenset())

    def test_as_path_of_interns(self):
        assert AsPath.of((1, 2)) is AsPath.of((1, 2))
        assert AsPath.of((1, 2)) == AsPath((1, 2))

    def test_empty_as_path_is_shared(self):
        assert _route().as_path is _route().as_path

    def test_route_is_immutable(self):
        route = _route()
        with pytest.raises(AttributeError):
            route.med = 5

    def test_route_hash_and_equality_are_structural(self):
        assert _route() == _route()
        assert hash(_route()) == hash(_route())
        assert _route(med=1) != _route()
