"""Tests for the BGP control-plane simulator."""

import copy

import pytest

from repro.batfish import BgpSimulation
from repro.cisco import generate_cisco, parse_cisco
from repro.netmodel import Action, Community, Ipv4Address, Prefix, Route
from repro.netmodel.aspath import AsPath


def _parse_all(texts):
    # Parse results are shared; the tests edit these configs, so copy.
    return {
        name: copy.deepcopy(parse_cisco(text, filename=name).config)
        for name, text in texts.items()
    }


def _two_routers(extra_a="", extra_b=""):
    a = (
        "hostname A\n"
        "interface eth0\n ip address 1.0.0.1 255.255.255.0\n"
        "router bgp 1\n"
        " network 10.1.0.0 mask 255.255.0.0\n"
        " neighbor 1.0.0.2 remote-as 2\n" + extra_a
    )
    b = (
        "hostname B\n"
        "interface eth0\n ip address 1.0.0.2 255.255.255.0\n"
        "router bgp 2\n"
        " network 10.2.0.0 mask 255.255.0.0\n"
        " neighbor 1.0.0.1 remote-as 1\n" + extra_b
    )
    return _parse_all({"A": a, "B": b})


class TestSessions:
    def test_mutual_declaration_establishes(self):
        sim = BgpSimulation(_two_routers())
        assert len(sim.sessions) == 1

    def test_wrong_remote_as_blocks_session(self):
        configs = _two_routers()
        configs["A"].bgp.neighbors["1.0.0.2"].remote_as = 99
        sim = BgpSimulation(configs)
        assert sim.sessions == []

    def test_one_sided_declaration_blocks_session(self):
        configs = _two_routers()
        configs["B"].bgp.remove_neighbor("1.0.0.1")
        sim = BgpSimulation(configs)
        assert sim.sessions == []

    def test_unowned_neighbor_address_ignored(self):
        configs = _two_routers()
        configs["A"].bgp.neighbors["1.0.0.2"].remote_as = 2
        # Add a neighbor address no router owns.
        from repro.netmodel import BgpNeighbor

        configs["A"].bgp.add_neighbor(
            BgpNeighbor(ip=Ipv4Address.parse("7.7.7.7"), remote_as=7)
        )
        sim = BgpSimulation(configs)
        assert len(sim.sessions) == 1


class TestPropagation:
    def test_routes_exchanged(self):
        sim = BgpSimulation(_two_routers())
        sim.run()
        assert sim.has_route("A", Prefix.parse("10.2.0.0/16"))
        assert sim.has_route("B", Prefix.parse("10.1.0.0/16"))

    def test_as_path_prepended(self):
        sim = BgpSimulation(_two_routers())
        entry = sim.rib("A")[Prefix.parse("10.2.0.0/16")]
        assert entry.route.as_path.asns == (2,)

    def test_provenance_tracked(self):
        sim = BgpSimulation(_two_routers())
        assert sim.rib_entry("A", Prefix.parse("10.2.0.0/16")).origin_router == "B"
        assert sim.rib_entry("A", Prefix.parse("10.1.0.0/16")).origin_router == "A"

    def test_local_origination_beats_learned(self):
        configs = _two_routers(
            extra_b=" network 10.1.0.0 mask 255.255.0.0\n"
        )
        sim = BgpSimulation(configs)
        assert sim.rib_entry("B", Prefix.parse("10.1.0.0/16")).origin_router == "B"

    def test_export_policy_applied(self):
        configs = _two_routers(
            extra_a=(
                " neighbor 1.0.0.2 route-map BLOCK out\n"
            )
        )
        # BLOCK denies everything (route-map with no permit clause).
        text = generate_cisco(configs["A"]) + "route-map BLOCK deny 10\n"
        configs["A"] = parse_cisco(text).config
        sim = BgpSimulation(configs)
        assert not sim.has_route("B", Prefix.parse("10.1.0.0/16"))

    def test_import_policy_transforms(self):
        configs = _two_routers(
            extra_b=" neighbor 1.0.0.1 route-map TAG in\n"
        )
        text = (
            generate_cisco(configs["B"])
            + "route-map TAG permit 10\n set community 100:1 additive\n"
        )
        configs["B"] = parse_cisco(text).config
        sim = BgpSimulation(configs)
        entry = sim.rib("B")[Prefix.parse("10.1.0.0/16")]
        assert Community(100, 1) in entry.route.communities

    def test_as_loop_prevention(self):
        """A route whose path contains the receiver's AS is rejected."""
        configs = _two_routers()
        # Three in a row: A - B, B - C, C - A would be needed for a real
        # loop; simulate by checking B never re-learns its own route.
        sim = BgpSimulation(configs)
        entry = sim.rib("B").get(Prefix.parse("10.2.0.0/16"))
        assert entry is not None
        assert entry.learned_from is None

    def test_convergence_is_idempotent(self):
        sim = BgpSimulation(_two_routers())
        first = sim.run()
        ribs = {name: sim.rib(name) for name in ("A", "B")}
        second = sim.run()
        assert first == second
        assert {name: sim.rib(name) for name in ("A", "B")} == ribs


class TestStarNoTransit:
    def test_reference_star_sessions(self, star7_configs):
        sim = BgpSimulation(star7_configs)
        pairs = sorted(
            tuple(sorted((s.local_router, s.remote_router))) for s in sim.sessions
        )
        # One session per spoke; the ISPs and the customer have no device.
        assert pairs == [("R1", f"R{i}") for i in range(2, 8)]

    def test_reference_star_blocks_transit(self, star7_configs, star7):
        texts = {
            name: generate_cisco(cfg) for name, cfg in star7_configs.items()
        }
        configs = _parse_all(texts)
        sim = BgpSimulation(configs)
        sim.run()
        # R2's prefix must not reach R3 (tagged + filtered at R1 egress).
        assert not sim.has_route("R3", Prefix.parse("1.0.0.0/24"))
        # The customer prefix reaches every spoke.
        for name in ("R2", "R3", "R7"):
            assert sim.has_route(name, Prefix.parse("100.0.0.0/24"))
        # The hub hears every spoke prefix.
        assert sim.has_route("R1", Prefix.parse("1.0.0.0/24"))
        assert sim.has_route("R1", Prefix.parse("6.0.0.0/24"))

    def test_unfiltered_star_leaks_transit(self, star7_configs):
        texts = {
            name: generate_cisco(cfg) for name, cfg in star7_configs.items()
        }
        configs = _parse_all(texts)
        hub = configs["R1"]
        for neighbor in hub.bgp.neighbors.values():
            neighbor.export_policy = None
        sim = BgpSimulation(configs)
        assert sim.has_route("R3", Prefix.parse("1.0.0.0/24"))


    def test_spoke_rib_holds_own_and_customer_prefixes(self, star7_configs):
        sim = BgpSimulation(star7_configs)
        # R2 originates its two networks and hears only the customer
        # prefix from the hub: no other spoke's routes transit to it.
        assert sorted(str(prefix) for prefix in sim.rib("R2")) == [
            "1.0.0.0/24",
            "100.0.0.0/24",
            "200.2.0.0/24",
        ]
        assert sim.rib_entry("R2", Prefix.parse("100.0.0.0/24")).origin_router == "R1"
        assert not sim.has_route("R2", Prefix.parse("2.0.0.0/24"))

    def test_hub_export_finder_denies_other_isp_tag(self, star7_configs):
        sim = BgpSimulation(star7_configs)
        finder = sim.export_clause_finder("R1", Ipv4Address.parse("1.0.0.2"))
        assert finder is not None
        base = Route(prefix=Prefix.parse("2.0.0.0/24"))
        assert finder(base).action is Action.PERMIT
        tagged = Route(
            prefix=Prefix.parse("2.0.0.0/24"),
            communities=frozenset({Community(101, 1)}),
        )
        # R3's ISP tag hits an explicit deny clause toward R2.
        assert finder(tagged).action is Action.DENY


class TestAccessors:
    def test_lone_router_has_no_sessions(self):
        configs = _two_routers()
        del configs["B"]
        sim = BgpSimulation(configs)
        assert sim.sessions == []
        assert sorted(str(prefix) for prefix in sim.rib("A")) == ["10.1.0.0/16"]

    def test_session_reversed_swaps_ends(self):
        (session,) = BgpSimulation(_two_routers()).sessions
        back = session.reversed()
        assert (back.local_router, back.remote_router) == (
            session.remote_router,
            session.local_router,
        )
        assert (back.local_ip, back.remote_ip) == (
            session.remote_ip,
            session.local_ip,
        )
        assert back.reversed() == session

    def test_run_converges_once(self):
        sim = BgpSimulation(_two_routers())
        iterations = sim.run()
        evaluations = sim.evaluations
        assert sim.run() == iterations
        assert sim.evaluations == evaluations

    def test_rib_is_a_copy(self):
        sim = BgpSimulation(_two_routers())
        sim.rib("A").clear()
        assert sim.has_route("A", Prefix.parse("10.2.0.0/16"))

    def test_rib_entry_of_unknown_router_raises(self):
        sim = BgpSimulation(_two_routers())
        with pytest.raises(KeyError):
            sim.rib_entry("ghost", Prefix.parse("10.1.0.0/16"))

    def test_export_finder_without_policy_is_none(self):
        sim = BgpSimulation(_two_routers())
        assert sim.export_clause_finder("A", Ipv4Address.parse("1.0.0.2")) is None
        assert sim.export_clause_finder("A", Ipv4Address.parse("9.9.9.9")) is None

    def test_successor_leaves_original_untouched(self):
        configs = _two_routers()
        sim = BgpSimulation(configs)
        sim.run()
        blocked = _two_routers(extra_a=" neighbor 1.0.0.2 route-map BLOCK out\n")
        text = generate_cisco(blocked["A"]) + "route-map BLOCK deny 10\n"
        edited = dict(configs, A=parse_cisco(text).config)
        successor = sim.successor(edited, {"A"})
        successor.run()
        assert not successor.has_route("B", Prefix.parse("10.1.0.0/16"))
        assert sim.has_route("B", Prefix.parse("10.1.0.0/16"))
        assert successor.sessions == sim.sessions

    def test_successor_converges_like_a_fresh_run(self):
        configs = _two_routers()
        sim = BgpSimulation(configs)
        sim.run()
        tagged = _two_routers(extra_b=" neighbor 1.0.0.1 route-map TAG in\n")
        text = (
            generate_cisco(tagged["B"])
            + "route-map TAG permit 10\n set community 100:1 additive\n"
        )
        edited = dict(configs, B=parse_cisco(text).config)
        successor = sim.successor(edited, {"B"})
        successor.run()
        fresh = BgpSimulation(edited)
        for name in ("A", "B"):
            assert successor.rib(name) == fresh.rib(name)
        entry = successor.rib_entry("B", Prefix.parse("10.1.0.0/16"))
        assert Community(100, 1) in entry.route.communities


class TestBestPath:
    def test_local_pref_wins(self):
        """Higher local-pref beats shorter AS path."""
        from repro.batfish.bgpsim import RibEntry

        low = RibEntry(
            route=Route(prefix=Prefix.parse("9.0.0.0/8"), local_pref=100),
            learned_from="x",
            origin_router="x",
        )
        high = RibEntry(
            route=Route(
                prefix=Prefix.parse("9.0.0.0/8"),
                local_pref=200,
                as_path=AsPath.of((2, 1)),
            ),
            learned_from="y",
            origin_router="y",
        )
        assert high.decision_key < low.decision_key
        assert not low.decision_key < high.decision_key

    def test_shorter_as_path_wins(self):
        from repro.batfish.bgpsim import RibEntry

        short = RibEntry(
            route=Route(prefix=Prefix.parse("9.0.0.0/8"), as_path=AsPath.of((1,))),
            learned_from="x",
            origin_router="x",
        )
        long = RibEntry(
            route=Route(
                prefix=Prefix.parse("9.0.0.0/8"), as_path=AsPath.of((2, 1))
            ),
            learned_from="y",
            origin_router="y",
        )
        assert short.decision_key < long.decision_key

    def test_lower_med_wins(self):
        from repro.batfish.bgpsim import RibEntry

        cheap = RibEntry(
            route=Route(prefix=Prefix.parse("9.0.0.0/8"), med=10),
            learned_from="x",
            origin_router="x",
        )
        costly = RibEntry(
            route=Route(prefix=Prefix.parse("9.0.0.0/8"), med=20),
            learned_from="y",
            origin_router="y",
        )
        assert cheap.decision_key < costly.decision_key
