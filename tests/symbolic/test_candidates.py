"""Tests for the structured candidate grid."""

from repro.netmodel import (
    Action,
    Community,
    CommunityList,
    CommunityListEntry,
    MatchCommunityList,
    MatchPrefixList,
    MatchPrefixRanges,
    MatchProtocol,
    Prefix,
    PrefixList,
    PrefixRange,
    Protocol,
    RouteMap,
    RouteMapClause,
    RouterConfig,
    SetCommunity,
)
from repro.symbolic import (
    CandidateUniverse,
    RouteConstraint,
    mentioned_communities,
    mentioned_prefix_ranges,
    mentioned_protocols,
)


def _config_with_policy():
    config = RouterConfig(hostname="r")
    plist = PrefixList("nets")
    plist.add("permit", PrefixRange(Prefix.parse("1.2.3.0/24"), 24, 32))
    config.add_prefix_list(plist)
    clist = CommunityList("tags")
    clist.add(CommunityListEntry("permit", (Community(100, 1),)))
    config.add_community_list(clist)
    rm = RouteMap("m")
    deny = RouteMapClause(seq=10, action=Action.DENY)
    deny.matches.append(MatchCommunityList("tags"))
    rm.add_clause(deny)
    permit = RouteMapClause(seq=20, action=Action.PERMIT)
    permit.matches.append(MatchPrefixList("nets"))
    permit.matches.append(MatchProtocol(Protocol.BGP))
    permit.sets.append(SetCommunity((Community(200, 2),), additive=True))
    rm.add_clause(permit)
    config.add_route_map(rm)
    return config, rm


class TestMentioned:
    def test_prefix_ranges_resolved_through_lists(self):
        config, rm = _config_with_policy()
        ranges = mentioned_prefix_ranges(config, rm)
        assert PrefixRange(Prefix.parse("1.2.3.0/24"), 24, 32) in ranges

    def test_inline_ranges_collected(self):
        config = RouterConfig(hostname="r")
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.PERMIT)
        target = PrefixRange.exact(Prefix.parse("9.9.9.0/24"))
        clause.matches.append(MatchPrefixRanges((target,)))
        rm.add_clause(clause)
        assert mentioned_prefix_ranges(config, rm) == [target]

    def test_communities_from_matches_and_sets(self):
        config, rm = _config_with_policy()
        communities = mentioned_communities(config, rm)
        assert Community(100, 1) in communities
        assert Community(200, 2) in communities

    def test_protocols(self):
        config, rm = _config_with_policy()
        assert mentioned_protocols(rm) == [Protocol.BGP]

    def test_undefined_list_tolerated(self):
        config = RouterConfig(hostname="r")
        rm = RouteMap("m")
        clause = RouteMapClause(seq=10, action=Action.PERMIT)
        clause.matches.append(MatchPrefixList("ghost"))
        rm.add_clause(clause)
        assert mentioned_prefix_ranges(config, rm) == []


class TestCandidateUniverse:
    def test_grid_covers_boundary_lengths(self):
        config, rm = _config_with_policy()
        universe = CandidateUniverse()
        universe.add_policy(config, rm)
        prefixes = universe.candidate_prefixes()
        lengths = {p.length for p in prefixes if str(p).startswith("1.2.3")}
        # low (24), low+1 (25), midpoint (28), high (32) all present.
        assert {24, 25, 28, 32} <= lengths

    def test_grid_includes_outside_prefix(self):
        universe = CandidateUniverse()
        assert Prefix.parse("203.0.113.0/24") in universe.candidate_prefixes()

    def test_community_subsets(self):
        config, rm = _config_with_policy()
        universe = CandidateUniverse()
        universe.add_policy(config, rm)
        sets = universe.candidate_community_sets()
        assert frozenset() in sets
        assert frozenset({Community(100, 1)}) in sets
        assert frozenset({Community(100, 1), Community(200, 2)}) in sets

    def test_protocols_include_defaults(self):
        universe = CandidateUniverse()
        protocols = universe.candidate_protocols()
        assert Protocol.BGP in protocols
        assert Protocol.OSPF in protocols

    def test_constraint_filtering(self):
        config, rm = _config_with_policy()
        universe = CandidateUniverse()
        universe.add_policy(config, rm)
        constraint = RouteConstraint.with_community(Community(100, 1))
        routes = list(universe.routes(constraint))
        assert routes
        assert all(Community(100, 1) in r.communities for r in routes)

    def test_add_constraint_enriches_grid(self):
        universe = CandidateUniverse()
        constraint = RouteConstraint(
            prefix_ranges=(PrefixRange.exact(Prefix.parse("7.7.7.0/24")),)
        )
        universe.add_constraint(constraint)
        assert Prefix.parse("7.7.7.0/24") in universe.candidate_prefixes()
