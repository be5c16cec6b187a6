"""Tests for search_route_policies (the SearchRoutePolicies substitute)."""

import pytest

from repro.netmodel import (
    Action,
    Community,
    CommunityList,
    CommunityListEntry,
    MatchCommunityList,
    MatchPrefixList,
    Prefix,
    PrefixList,
    PrefixRange,
    RouteMap,
    RouteMapClause,
    RouterConfig,
)
from repro.symbolic import (
    RouteConstraint,
    search_route_policies,
)


@pytest.fixture()
def config():
    cfg = RouterConfig(hostname="r")
    plist = PrefixList("nets")
    plist.add("permit", PrefixRange(Prefix.parse("1.2.3.0/24"), 24, 32))
    cfg.add_prefix_list(plist)
    clist = CommunityList("tag100")
    clist.add(CommunityListEntry("permit", (Community(100, 1),)))
    cfg.add_community_list(clist)
    rm = RouteMap("filter")
    deny = RouteMapClause(seq=10, action=Action.DENY)
    deny.matches.append(MatchCommunityList("tag100"))
    rm.add_clause(deny)
    permit = RouteMapClause(seq=20, action=Action.PERMIT)
    permit.matches.append(MatchPrefixList("nets"))
    rm.add_clause(permit)
    cfg.add_route_map(rm)
    return cfg


class TestSearch:
    def test_finds_permitted_route(self, config):
        results = search_route_policies(config, "filter", Action.PERMIT)
        assert results
        witness = results[0]
        assert witness.action is Action.PERMIT
        assert Prefix.parse("1.2.3.0/24").contains(witness.input_route.prefix)

    def test_finds_denied_route(self, config):
        results = search_route_policies(config, "filter", Action.DENY)
        assert results

    def test_respects_constraint(self, config):
        """The paper's §4 question: does the filter permit any route
        carrying the forbidden community?"""
        constraint = RouteConstraint.with_community(Community(100, 1))
        results = search_route_policies(
            config, "filter", Action.PERMIT, constraint=constraint
        )
        assert results == []  # the deny clause catches them all

    def test_violation_found_when_filter_broken(self, config):
        broken = config.get_route_map("filter")
        broken.clauses = [c for c in broken.clauses if c.action is Action.PERMIT]
        constraint = RouteConstraint.with_community(Community(100, 1))
        results = search_route_policies(
            config, "filter", Action.PERMIT, constraint=constraint
        )
        assert results
        assert Community(100, 1) in results[0].input_route.communities

    def test_limit_respected(self, config):
        results = search_route_policies(
            config, "filter", Action.DENY, limit=2
        )
        assert len(results) <= 2

    def test_unknown_policy_raises(self, config):
        with pytest.raises(KeyError):
            search_route_policies(config, "ghost", Action.PERMIT)

    def test_accepts_route_map_object(self, config):
        rm = config.get_route_map("filter")
        assert search_route_policies(config, rm, Action.PERMIT)

    def test_output_route_carries_transforms(self, config):
        results = search_route_policies(config, "filter", Action.PERMIT)
        assert results[0].output_route is not None


class TestReferenceStar:
    """The §4 semantic question on the star's reference hub config."""

    def test_other_isp_tag_is_filtered(self, star7_configs):
        results = search_route_policies(
            star7_configs["R1"],
            "FILTER_COMM_OUT_R2",
            Action.PERMIT,
            constraint=RouteConstraint.with_community(Community(101, 1)),
        )
        assert results == []  # R3's tag is filtered at R2's egress

    def test_own_tag_is_not_filtered(self, star7_configs):
        results = search_route_policies(
            star7_configs["R1"],
            "FILTER_COMM_OUT_R2",
            Action.PERMIT,
            constraint=RouteConstraint.with_community(Community(100, 1)),
        )
        # R2's own tag is not filtered toward R2 (AS-loop handles it).
        assert results
