"""Tests for the route-map IR and its evaluation semantics."""

import pytest

from repro.netmodel import (
    Action,
    AsPathAccessList,
    Community,
    CommunityList,
    CommunityListEntry,
    Ipv4Address,
    MatchAsPathList,
    MatchCommunityInline,
    MatchCommunityList,
    MatchPrefixList,
    MatchPrefixRanges,
    MatchProtocol,
    PolicyEvaluationError,
    Prefix,
    PrefixList,
    PrefixRange,
    Protocol,
    Route,
    RouteBuilder,
    RouteMap,
    RouteMapClause,
    RouterConfig,
    SetAsPathPrepend,
    SetCommunity,
    SetLocalPref,
    SetMed,
    SetNextHop,
    path_through,
    permit_all,
)


@pytest.fixture()
def config():
    cfg = RouterConfig(hostname="r1")
    plist = PrefixList("nets")
    plist.add("permit", PrefixRange.exact(Prefix.parse("1.2.3.0/24")))
    cfg.add_prefix_list(plist)
    clist = CommunityList("tags")
    clist.add(CommunityListEntry("permit", (Community(100, 1),)))
    cfg.add_community_list(clist)
    acl = AsPathAccessList("paths")
    acl.add("permit", "_200_")
    cfg.add_as_path_list(acl)
    return cfg


def _route(**kwargs):
    return Route(prefix=Prefix.parse("1.2.3.0/24"), **kwargs)


class TestMatchConditions:
    def test_match_prefix_list(self, config):
        condition = MatchPrefixList("nets")
        assert condition.matches(_route(), config)
        assert not condition.matches(
            Route(prefix=Prefix.parse("9.9.9.0/24")), config
        )

    def test_match_prefix_list_undefined_raises(self, config):
        with pytest.raises(PolicyEvaluationError):
            MatchPrefixList("missing").matches(_route(), config)

    def test_match_prefix_ranges(self, config):
        condition = MatchPrefixRanges(
            (PrefixRange(Prefix.parse("1.2.3.0/24"), 24, 32),)
        )
        assert condition.matches(_route(), config)
        assert condition.matches(
            Route(prefix=Prefix.parse("1.2.3.0/28")), config
        )

    def test_match_community_list(self, config):
        condition = MatchCommunityList("tags")
        tagged = _route(communities=frozenset({Community(100, 1)}))
        assert condition.matches(tagged, config)
        assert not condition.matches(_route(), config)

    def test_match_community_list_undefined_raises(self, config):
        with pytest.raises(PolicyEvaluationError):
            MatchCommunityList("missing").matches(_route(), config)

    def test_match_community_inline(self, config):
        condition = MatchCommunityInline(Community(100, 1))
        assert condition.matches(
            _route(communities=frozenset({Community(100, 1)})), config
        )

    def test_match_as_path(self, config):
        condition = MatchAsPathList("paths")
        assert condition.matches(_route(as_path=path_through([200])), config)
        assert not condition.matches(_route(), config)

    def test_match_protocol(self, config):
        condition = MatchProtocol(Protocol.BGP)
        assert condition.matches(_route(), config)
        assert not condition.matches(
            _route(protocol=Protocol.OSPF), config
        )


def _applied(action, route):
    builder = RouteBuilder(route)
    action.apply_to(builder)
    return builder.freeze()


class TestSetActions:
    def test_set_community_additive(self):
        action = SetCommunity((Community(2, 2),), additive=True)
        route = _applied(action, _route(communities=frozenset({Community(1, 1)})))
        assert route.communities == {Community(1, 1), Community(2, 2)}

    def test_set_community_replacing(self):
        action = SetCommunity((Community(2, 2),), additive=False)
        route = _applied(action, _route(communities=frozenset({Community(1, 1)})))
        assert route.communities == {Community(2, 2)}

    def test_set_community_empty_noop(self):
        action = SetCommunity((), additive=False)
        route = _route(communities=frozenset({Community(1, 1)}))
        assert _applied(action, route) == route

    def test_set_med(self):
        assert _applied(SetMed(50), _route()).med == 50

    def test_set_local_pref(self):
        assert _applied(SetLocalPref(300), _route()).local_pref == 300

    def test_set_next_hop(self):
        hop = Ipv4Address.parse("2.3.4.1")
        assert _applied(SetNextHop(hop), _route()).next_hop == hop

    def test_set_as_path_prepend(self):
        route = _applied(SetAsPathPrepend(100, 2), _route())
        assert route.as_path.asns == (100, 100)


class TestRouteMapEvaluation:
    def test_permit_applies_sets(self, config):
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.PERMIT)
        clause.matches.append(MatchPrefixList("nets"))
        clause.sets.append(SetMed(50))
        rm.add_clause(clause)
        result = rm.evaluate(_route(), config)
        assert result.permitted
        assert result.route.med == 50
        assert result.clause_seq == 10

    def test_deny_does_not_apply_sets(self, config):
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.DENY)
        clause.sets.append(SetMed(50))
        rm.add_clause(clause)
        result = rm.evaluate(_route(), config)
        assert not result.permitted
        assert result.route.med == 0

    def test_implicit_deny_when_nothing_matches(self, config):
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.PERMIT)
        clause.matches.append(MatchPrefixList("nets"))
        rm.add_clause(clause)
        result = rm.evaluate(Route(prefix=Prefix.parse("9.9.9.0/24")), config)
        assert not result.permitted
        assert result.clause_seq is None

    def test_first_matching_clause_is_terminal(self, config):
        rm = RouteMap("m")
        deny = RouteMapClause(seq=10, action=Action.DENY)
        deny.matches.append(MatchPrefixList("nets"))
        rm.add_clause(deny)
        rm.add_clause(RouteMapClause(seq=20, action=Action.PERMIT))
        assert not rm.evaluate(_route(), config).permitted

    def test_clauses_evaluated_in_seq_order(self, config):
        rm = RouteMap("m")
        rm.add_clause(RouteMapClause(seq=20, action=Action.DENY))
        rm.add_clause(RouteMapClause(seq=10, action=Action.PERMIT))
        assert rm.evaluate(_route(), config).clause_seq == 10

    def test_and_semantics_within_clause(self, config):
        """The paper's §4.2 lesson: all matches in one stanza must hold."""
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.DENY)
        clause.matches.append(MatchCommunityList("tags"))
        clause.matches.append(MatchProtocol(Protocol.OSPF))
        rm.add_clause(clause)
        rm.add_clause(RouteMapClause(seq=20, action=Action.PERMIT))
        # Carries the tag but is BGP: the AND clause does not fire.
        tagged_bgp = _route(communities=frozenset({Community(100, 1)}))
        assert rm.evaluate(tagged_bgp, config).permitted

    def test_or_semantics_across_clauses(self, config):
        clist2 = CommunityList("tags2")
        clist2.add(CommunityListEntry("permit", (Community(101, 1),)))
        config.add_community_list(clist2)
        rm = RouteMap("m")
        for seq, name in ((10, "tags"), (20, "tags2")):
            clause = RouteMapClause(seq=seq, action=Action.DENY)
            clause.matches.append(MatchCommunityList(name))
            rm.add_clause(clause)
        rm.add_clause(RouteMapClause(seq=30, action=Action.PERMIT))
        either = _route(communities=frozenset({Community(101, 1)}))
        assert not rm.evaluate(either, config).permitted

    def test_sets_applied_in_order(self, config):
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.PERMIT)
        clause.sets.append(SetMed(1))
        clause.sets.append(SetMed(2))
        rm.add_clause(clause)
        assert rm.evaluate(_route(), config).route.med == 2

    def test_get_clause(self):
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.PERMIT)
        rm.add_clause(clause)
        assert rm.get_clause(10) is clause
        assert rm.get_clause(99) is None

    def test_referenced_prefix_lists(self, config):
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.PERMIT)
        clause.matches.append(MatchPrefixList("nets"))
        rm.add_clause(clause)
        assert rm.referenced_prefix_lists() == ["nets"]

    def test_referenced_community_lists(self, config):
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.DENY)
        clause.matches.append(MatchCommunityList("tags"))
        rm.add_clause(clause)
        assert rm.referenced_community_lists() == ["tags"]

    def test_permit_all_helper(self, config):
        rm = permit_all("open")
        assert rm.evaluate(_route(), config).permitted
