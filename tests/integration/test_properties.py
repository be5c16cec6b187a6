"""Property-based tests over randomly generated configurations.

These exercise cross-module invariants: generator/parser round-trips on
both vendors, route-map evaluation laws, and BGP-simulation safety
properties — the kind of bugs unit tests with hand-picked configs miss.
"""

from hypothesis import given, settings, strategies as st

from repro.cisco import generate_cisco, parse_cisco
from repro.juniper import generate_juniper, parse_juniper
from repro.netmodel import (
    Action,
    BgpNeighbor,
    Community,
    CommunityList,
    CommunityListEntry,
    Interface,
    Ipv4Address,
    MatchCommunityList,
    MatchPrefixList,
    Prefix,
    PrefixList,
    PrefixRange,
    Route,
    RouteMap,
    RouteMapClause,
    RouterConfig,
    SetCommunity,
    SetLocalPref,
    SetMed,
    Vendor,
)

# -- strategies -----------------------------------------------------------------

asns = st.integers(min_value=1, max_value=65000)
med_values = st.integers(min_value=0, max_value=4_000_000)
communities = st.builds(
    Community,
    st.integers(min_value=1, max_value=65000),
    st.integers(min_value=0, max_value=65000),
)


@st.composite
def prefixes24(draw):
    """Prefixes with octet-aligned lengths render cleanly on both vendors."""
    length = draw(st.sampled_from([8, 16, 24, 32]))
    network = draw(st.integers(min_value=0, max_value=0xFFFFFFFF))
    return Prefix(network, length)


@st.composite
def route_maps(draw, prefix_list_names, community_list_names):
    name = draw(st.sampled_from(["MAP_A", "MAP_B", "MAP_C"]))
    route_map = RouteMap(name)
    clause_count = draw(st.integers(min_value=1, max_value=3))
    for index in range(clause_count):
        clause = RouteMapClause(
            seq=(index + 1) * 10,
            action=draw(st.sampled_from([Action.PERMIT, Action.DENY])),
        )
        if draw(st.booleans()) and prefix_list_names:
            clause.matches.append(
                MatchPrefixList(draw(st.sampled_from(prefix_list_names)))
            )
        if draw(st.booleans()) and community_list_names:
            clause.matches.append(
                MatchCommunityList(draw(st.sampled_from(community_list_names)))
            )
        if clause.action is Action.PERMIT:
            if draw(st.booleans()):
                clause.sets.append(SetMed(draw(med_values)))
            if draw(st.booleans()):
                clause.sets.append(
                    SetCommunity((draw(communities),), additive=True)
                )
            if draw(st.booleans()):
                clause.sets.append(SetLocalPref(draw(st.integers(0, 500))))
        route_map.add_clause(clause)
    return route_map


@st.composite
def router_configs(draw):
    config = RouterConfig(hostname="fuzz", vendor=Vendor.CISCO)
    address = f"10.0.{draw(st.integers(0, 254))}.1"
    config.add_interface(
        Interface(
            "eth0/0", address=Ipv4Address.parse(address),
            prefix=Prefix.parse(f"{address}/24"),
        )
    )
    plist = PrefixList("PL_X")
    for _ in range(draw(st.integers(1, 3))):
        base = draw(prefixes24())
        low = draw(st.integers(min_value=base.length, max_value=32))
        high = draw(st.integers(min_value=low, max_value=32))
        plist.add(
            draw(st.sampled_from(["permit", "deny"])),
            PrefixRange(base, low, high),
        )
    config.add_prefix_list(plist)
    clist = CommunityList("7")
    clist.add(CommunityListEntry("permit", (draw(communities),)))
    config.add_community_list(clist)
    route_map = draw(route_maps(["PL_X"], ["7"]))
    config.add_route_map(route_map)
    bgp = config.ensure_bgp(draw(asns))
    bgp.announce(Prefix.parse(f"10.0.{draw(st.integers(0, 254))}.0/24"))
    neighbor = BgpNeighbor(
        ip=Ipv4Address.parse("10.0.255.2"),
        remote_as=draw(asns),
        send_community=True,
    )
    if draw(st.booleans()):
        neighbor.export_policy = route_map.name
    bgp.add_neighbor(neighbor)
    return config


@st.composite
def candidate_routes(draw):
    return Route(
        prefix=draw(prefixes24()),
        communities=frozenset(draw(st.lists(communities, max_size=2))),
        med=draw(med_values),
    )


# -- round trips --------------------------------------------------------------------


class TestCiscoRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(router_configs())
    def test_generate_parse_preserves_structure(self, config):
        result = parse_cisco(generate_cisco(config))
        assert not result.warnings
        rebuilt = result.config
        assert rebuilt.hostname == config.hostname
        assert set(rebuilt.route_maps) == set(config.route_maps)
        assert set(rebuilt.prefix_lists) == set(config.prefix_lists)
        assert rebuilt.bgp.asn == config.bgp.asn
        assert set(rebuilt.bgp.neighbors) == set(config.bgp.neighbors)
        assert rebuilt.bgp.networks == config.bgp.networks

    @settings(max_examples=40, deadline=None)
    @given(router_configs(), candidate_routes())
    def test_roundtrip_preserves_policy_semantics(self, config, route):
        """Round-tripped policies must evaluate identically."""
        rebuilt = parse_cisco(generate_cisco(config)).config
        for name, original_map in config.route_maps.items():
            rebuilt_map = rebuilt.route_maps[name]
            before = original_map.evaluate(route, config)
            after = rebuilt_map.evaluate(route, rebuilt)
            assert before.action is after.action
            if before.permitted:
                assert before.route == after.route


class TestJuniperRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(router_configs(), candidate_routes())
    def test_juniper_render_parse_preserves_policy_semantics(
        self, config, route
    ):
        from repro.juniper import translate_cisco_to_juniper

        juniper, _ = translate_cisco_to_juniper(config)
        result = parse_juniper(generate_juniper(juniper))
        assert not result.warnings
        rebuilt = result.config
        for name, translated_map in juniper.route_maps.items():
            rebuilt_map = rebuilt.route_maps[name]
            before = translated_map.evaluate(route, juniper)
            after = rebuilt_map.evaluate(route, rebuilt)
            assert before.action is after.action, name
            if before.permitted:
                assert before.route == after.route, name


# -- evaluation laws ----------------------------------------------------------------


class TestEvaluationLaws:
    @settings(max_examples=60, deadline=None)
    @given(router_configs(), candidate_routes())
    def test_deny_never_transforms(self, config, route):
        for route_map in config.route_maps.values():
            result = route_map.evaluate(route, config)
            if not result.permitted:
                assert result.route == route

    @settings(max_examples=60, deadline=None)
    @given(router_configs(), candidate_routes())
    def test_additive_sets_only_grow_communities(self, config, route):
        for route_map in config.route_maps.values():
            result = route_map.evaluate(route, config)
            if result.permitted:
                fired = route_map.get_clause(result.clause_seq)
                if all(
                    getattr(action, "additive", True)
                    for action in fired.sets
                    if isinstance(action, SetCommunity)
                ):
                    assert route.communities <= result.route.communities

    @settings(max_examples=60, deadline=None)
    @given(router_configs(), candidate_routes())
    def test_evaluation_is_deterministic(self, config, route):
        for route_map in config.route_maps.values():
            first = route_map.evaluate(route, config)
            second = route_map.evaluate(route, config)
            assert first == second


# -- simulation safety -----------------------------------------------------------------


class TestSimulationSafety:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1_000_000))
    def test_no_learned_route_contains_own_asn(self, seed_value):
        """AS-loop prevention holds on the reference star regardless of
        which spoke's prefix we look at."""
        from repro.batfish import BgpSimulation
        from repro.topology import generate_star_network
        from repro.topology.reference import build_reference_configs

        star = generate_star_network(4 + (seed_value % 4))
        configs = build_reference_configs(star.topology)
        simulation = BgpSimulation(configs)
        simulation.run()
        for name, config in configs.items():
            for entry in simulation.rib(name).values():
                if entry.learned_from is not None:
                    assert not entry.route.as_path.contains(config.bgp.asn)
