"""Decision-cache property and differential tests.

The cached ``RibEntry.decision_key`` tuple must order entries exactly
as the BGP attribute cascade does (property-tested over randomized
pairs against :func:`_cascade_better`, the reference oracle below), the
ordering must be *total* on decision-relevant attributes (the ``"" <
""`` local-origination tie regression), every family's converged RIBs
must hold the cascade-best of all neighbor offers with every learned
entry equal to its advertiser's current offer, and tie-heavy
meshes — every router originating the same prefix — must converge to
the same RIBs under full and incremental simulation alike.
"""

import random

import pytest

from repro.batfish.bgpsim import (
    BgpSimulation,
    RibEntry,
    SimulationState,
    _same_entry,
    rib_snapshots,
)
from repro.cisco import parse_cisco
from repro.netmodel import Prefix
from repro.netmodel.aspath import AsPath
from repro.netmodel.route import Route
from repro.topology.families import FAMILIES, generate_network
from repro.topology.reference import build_reference_configs


PREFIX = Prefix.parse("10.0.0.0/16")

ROUTERS = ("R1", "R2", "R3", "R4")


def _random_entry(rng):
    """A RibEntry varying every decision-relevant attribute.

    Attributes outside the decision process (communities, next-hop) are
    held constant: the decision key is blind to them by design, so only
    decision-distinguishable pairs are meaningful for ordering.
    """
    learned_from = rng.choice((None,) + ROUTERS)
    route = Route(
        prefix=PREFIX,
        as_path=AsPath.of(tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))),
        med=rng.choice((0, 5, 10)),
        local_pref=rng.choice((50, 100, 200)),
    )
    origin = rng.choice(ROUTERS)
    return RibEntry(
        route=route,
        learned_from=learned_from,
        origin_router=origin,
        path=() if learned_from is None else (origin,),
    )


def _cascade_better(candidate, incumbent):
    """The BGP decision process as an attribute cascade: the reference
    oracle the cached decision tuple must agree with."""
    candidate_local = candidate.learned_from is None
    if candidate_local != (incumbent.learned_from is None):
        return candidate_local  # locally originated wins
    left, right = candidate.route, incumbent.route
    if left.local_pref != right.local_pref:
        return left.local_pref > right.local_pref
    left_asns, right_asns = left.as_path.asns, right.as_path.asns
    if len(left_asns) != len(right_asns):
        return len(left_asns) < len(right_asns)
    if left.med != right.med:
        return left.med < right.med
    if candidate.learned_from != incumbent.learned_from:
        return (candidate.learned_from or "") < (incumbent.learned_from or "")
    # Total tie-break: equally-attributed entries from the same neighbor
    # (or both locally originated) are ordered by originator, then by
    # route content — never by arrival order.
    if candidate.origin_router != incumbent.origin_router:
        return candidate.origin_router < incumbent.origin_router
    if left_asns != right_asns:
        return left_asns < right_asns
    return candidate.path < incumbent.path


def _better(candidate, incumbent):
    return candidate.decision_key < incumbent.decision_key


def _pairs(count=300, seed=7):
    rng = random.Random(seed)
    return [(_random_entry(rng), _random_entry(rng)) for _ in range(count)]


class TestDecisionOrder:
    def test_tuple_matches_attribute_cascade(self):
        """One tuple ``<`` must agree with the attribute cascade on
        every randomized pair, in both directions."""
        for a, b in _pairs():
            assert _better(a, b) == _cascade_better(a, b)
            assert _better(b, a) == _cascade_better(b, a)

    def test_better_antisymmetric_and_total(self):
        """For entries that differ in any decision-relevant attribute,
        exactly one direction wins — under the tuple and the cascade."""
        for better in (_better, _cascade_better):
            for a, b in _pairs(seed=11):
                if a.decision_key == b.decision_key:
                    # Decision-indistinguishable: neither wins.
                    assert not better(a, b)
                    assert not better(b, a)
                else:
                    assert better(a, b) != better(b, a)

    def test_local_origination_tie_is_ordered(self):
        """Two locally originated entries with equal attributes must be
        strictly ordered by originator — the historical fall-through
        compared ``"" < ""`` and silently kept the incumbent."""
        a = RibEntry(route=Route(prefix=PREFIX), learned_from=None, origin_router="R1")
        b = RibEntry(route=Route(prefix=PREFIX), learned_from=None, origin_router="R2")
        assert _better(a, b)
        assert not _better(b, a)

    def test_same_entry_agrees_with_decision_key(self):
        """_same_entry must never call indistinguishable a pair whose
        decision keys differ."""
        for a, b in _pairs(seed=13):
            if _same_entry(a, b):
                assert a.decision_key == b.decision_key


def _tie_mesh(extra=None):
    """A 4-router full mesh where every router originates the *same*
    prefix: every (router, prefix) cell is a pure tie-break decision."""
    extra = extra or {}
    routers = ROUTERS
    texts = {}
    for i, name in enumerate(routers, start=1):
        lines = [f"hostname {name}"]
        eth = 0
        for j in range(1, len(routers) + 1):
            if j == i:
                continue
            low, high = sorted((i, j))
            lines.append(f"interface eth{eth}")
            lines.append(f" ip address 10.{low}.{high}.{i} 255.255.255.0")
            eth += 1
        lines.append(f"router bgp {i}")
        lines.append(" network 99.0.0.0 mask 255.255.0.0")
        for j in range(1, len(routers) + 1):
            if j == i:
                continue
            low, high = sorted((i, j))
            lines.append(f" neighbor 10.{low}.{high}.{j} remote-as {j}")
        lines.extend(extra.get(name, ()))
        texts[name] = "\n".join(lines) + "\n"
    return {
        name: parse_cisco(text, filename=name).config
        for name, text in texts.items()
    }


class TestTieHeavyMeshDifferential:
    def test_every_router_installs_the_contested_prefix(self):
        sim = BgpSimulation(_tie_mesh())
        sim.run()
        snapshot = rib_snapshots(sim)
        winner = {
            name: rib[Prefix.parse("99.0.0.0/16")]
            for name, rib in snapshot.items()
        }
        assert set(winner) == set(ROUTERS)

    def test_incremental_matches_full_on_ties(self):
        """Changing one router of an all-ties mesh must leave incremental
        re-simulation and a fresh full run on identical RIBs (the no-op
        install check keeps dirty tracking identical on both paths)."""
        changed = {"R2": (" network 98.0.0.0 mask 255.255.0.0",)}
        state = SimulationState(_tie_mesh())
        state.resimulate(_tie_mesh(changed))
        assert state.last_stats.mode == "incremental"
        assert state.last_stats.dirty_routers == 1
        full = BgpSimulation(_tie_mesh(changed))
        full.run()
        assert rib_snapshots(state._sim) == rib_snapshots(full)


def _assert_stable_state(configs):
    """Converge ``configs`` and check the stable-state conditions:
    every route a neighbor would advertise over a session loses to (or
    is) the receiver's installed entry under the attribute cascade, and
    every learned entry is exactly its advertiser's current offer.
    Returns the number of offers compared."""
    sim = BgpSimulation(configs)
    sim.run()
    offered = {}
    for pair in sim.sessions:
        for session in (pair, pair.reversed()):
            sender, receiver = session.local_router, session.remote_router
            sender_config = configs[sender]
            receiver_config = configs[receiver]
            finds = []
            for config, address, direction in (
                (sender_config, session.remote_ip, "export"),
                (receiver_config, session.local_ip, "import"),
            ):
                route_map = sim._neighbor_policy(config, address, direction)
                finds.append(
                    None
                    if route_map is None
                    else route_map.prepare(config).find_clause
                )
            for entry in sim.rib(sender).values():
                if entry.learned_from == receiver:
                    continue
                candidate = sim._export_candidate(
                    entry,
                    finds[0],
                    finds[1],
                    sender,
                    sender_config.bgp.asn,
                    receiver_config.bgp.asn,
                    session.local_ip,
                )
                if candidate is None:
                    continue
                offered[receiver, entry.route.prefix, sender] = candidate
                installed = sim.rib(receiver)[entry.route.prefix]
                assert not _cascade_better(candidate, installed)
    for name in configs:
        for prefix, entry in sim.rib(name).items():
            if entry.learned_from is not None:
                offer = offered.get((name, prefix, entry.learned_from))
                assert offer is not None and _same_entry(offer, entry), (
                    name,
                    prefix,
                    entry.learned_from,
                )
    return len(offered)


class TestConvergedRibsAgreeWithCascade:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_no_neighbor_offer_beats_the_installed_entry(self, family):
        """At the fixpoint every router holds the best of its
        neighbors' current offers — the one decision-key winner rule
        and the loser pre-screen never keep a worse route, and no
        learned route outlives its advertiser's entry."""
        configs = build_reference_configs(generate_network(family, 6).topology)
        assert _assert_stable_state(configs) > 0

    def test_roled_waxman_22_holds_no_replaced_route(self):
        """The converge-scale waxman-22 network, where a full run
        without implicit withdrawal keeps entries whose advertiser has
        since replaced its route."""
        network = generate_network("waxman", 22, roles="c2i3h2")
        configs = build_reference_configs(network.topology)
        assert _assert_stable_state(configs) > 0
