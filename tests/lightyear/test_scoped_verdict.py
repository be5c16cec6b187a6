"""The border verdict evaluates export policy only on the role prefixes
it asks about, and reaches the same verdict as the RIB-wide reading."""

import copy
import functools

import pytest

from repro.batfish.bgpsim import BgpSimulation
from repro.experiments import no_transit
from repro.lightyear import compose
from repro.lightyear.compose import (
    IncrementalGlobalChecker,
    check_global_no_transit,
)
from repro.netmodel.ip import Prefix, PrefixRange
from repro.netmodel.prefixlist import PrefixList
from repro.netmodel.routing_policy import (
    Action,
    MatchCommunityList,
    MatchPrefixList,
    PolicyEvaluationError,
    RouteMap,
    RouteMapClause,
)
from repro.obs import counter
from repro.topology import reference
from repro.topology.roles import RoleAssignment

EGRESS_FILTER_PREFIX = "FILTER_COMM_OUT_"

NETWORKS = {
    "waxman-22": ("waxman", 22, "c2i3h2"),
    "random-22": ("random", 22, "c2i2h2p1"),
    "mesh-18": ("mesh", 18, None),
}


@functools.lru_cache(maxsize=None)
def _reference_network(label):
    family, size, roles = NETWORKS[label]
    network = no_transit.materialize_network(family, size, roles=roles)
    return network.topology, reference.build_reference_configs(network.topology)


def _network(label):
    topology, configs = _reference_network(label)
    return topology, copy.deepcopy(configs)


def _rib_wide_exported(simulation, router, config, peer_ip, wanted=None):
    """The RIB-wide reading: run the export map over every RIB entry,
    ignoring which prefixes the verdict asks about."""
    if config.bgp is None:
        return set()
    neighbor = config.bgp.get_neighbor(peer_ip)
    if neighbor is None:
        return set()
    export_map = (
        config.get_route_map(neighbor.export_policy)
        if neighbor.export_policy is not None
        else None
    )
    exported = set()
    for entry in simulation.rib(router).values():
        route = entry.route
        if export_map is not None:
            try:
                outcome = export_map.evaluate(route, config)
            except PolicyEvaluationError:
                continue
            if outcome.action is Action.DENY:
                continue
        exported.add(route.prefix)
    return exported


def _border_routers(configs):
    return sorted(
        name
        for name, config in configs.items()
        if config.bgp is not None
        and any(
            (neighbor.export_policy or "").startswith(EGRESS_FILTER_PREFIX)
            for neighbor in config.bgp.neighbors.values()
        )
    )


def _strip_egress_filters(config):
    for neighbor in config.bgp.neighbors.values():
        if (neighbor.export_policy or "").startswith(EGRESS_FILTER_PREFIX):
            neighbor.export_policy = None


def _both_readings(configs, topology, monkeypatch):
    scoped = check_global_no_transit(
        configs, topology, checker=IncrementalGlobalChecker()
    )
    with monkeypatch.context() as patch:
        patch.setattr(compose, "_exported_prefixes", _rib_wide_exported)
        rib_wide = check_global_no_transit(
            configs, topology, checker=IncrementalGlobalChecker()
        )
    return scoped, rib_wide


def _assert_same_verdict(scoped, rib_wide):
    assert scoped.describe() == rib_wide.describe()
    assert scoped.role_verdicts == rib_wide.role_verdicts
    assert scoped.transit_violations == rib_wide.transit_violations
    assert scoped.customer_unreachable == rib_wide.customer_unreachable
    assert (
        scoped.isp_prefixes_missing_at_hub
        == rib_wide.isp_prefixes_missing_at_hub
    )


def _role_prefix(topology, attachment):
    return topology.router(attachment.router).interface(
        attachment.peer.interface
    ).prefix


@pytest.mark.parametrize("label", sorted(NETWORKS))
@pytest.mark.parametrize("stripped", [0, 1, 2])
def test_scoped_verdict_matches_rib_wide_reading(label, stripped, monkeypatch):
    topology, configs = _network(label)
    border = _border_routers(configs)
    victims = [border[0], border[-1]][:stripped]
    for victim in victims:
        _strip_egress_filters(configs[victim])
    scoped, rib_wide = _both_readings(configs, topology, monkeypatch)
    _assert_same_verdict(scoped, rib_wide)
    assert scoped.holds is (stripped == 0)


def _install_raising_export(configs, topology, target):
    """Replace one ISP attachment's egress filter with a map whose deny
    clause matches ``target`` by prefix-list and then consults an
    undefined community-list: only the ``target`` route raises, every
    other route falls through to the permit clause."""
    roles = RoleAssignment.from_topology(topology)
    attachment = roles.transit_forbidden()[0]
    config = configs[attachment.router]
    prefix_list = PrefixList("SCOPED_TARGET")
    prefix_list.add("permit", PrefixRange.exact(target))
    config.add_prefix_list(prefix_list)
    config.add_route_map(
        RouteMap(
            "SCOPED_RAISE",
            [
                RouteMapClause(
                    10,
                    Action.DENY,
                    matches=[
                        MatchPrefixList("SCOPED_TARGET"),
                        MatchCommunityList("UNDEFINED_LIST"),
                    ],
                ),
                RouteMapClause(20, Action.PERMIT),
            ],
        )
    )
    config.bgp.get_neighbor(attachment.peer.peer_ip).export_policy = (
        "SCOPED_RAISE"
    )
    return attachment, config


@pytest.mark.parametrize("queried", [True, False])
def test_partially_raising_export_map(queried, monkeypatch):
    topology, configs = _network("waxman-22")
    roles = RoleAssignment.from_topology(topology)
    own = roles.transit_forbidden()[0]
    if queried:
        # Another ISP's prefix: a role prefix the verdict asks about.
        other = next(
            attachment
            for attachment in roles.transit_forbidden()
            if attachment.index != own.index
        )
        target = _role_prefix(topology, other)
    else:
        target = Prefix.parse("10.1.0.0/24")  # an internal link prefix
    attachment, config = _install_raising_export(configs, topology, target)

    simulation = BgpSimulation(configs)
    entry = simulation.rib_entry(attachment.router, target)
    assert entry is not None
    export_map = config.get_route_map("SCOPED_RAISE")
    with pytest.raises(PolicyEvaluationError):
        export_map.evaluate(entry.route, config)

    scoped, rib_wide = _both_readings(configs, topology, monkeypatch)
    _assert_same_verdict(scoped, rib_wide)
    assert not scoped.holds  # the permit clause leaks the other ISPs
    assert all(str(target) not in line for line in scoped.transit_violations)


def test_export_evaluations_bounded_by_queried_prefixes():
    topology, configs = _network("waxman-22")
    roles = RoleAssignment.from_topology(topology)
    attachments = list(roles.transit_forbidden()) + list(roles.customers)
    wanted = {_role_prefix(topology, attachment) for attachment in attachments}
    simulation = BgpSimulation(configs)
    scoped_bound = rib_wide = 0
    for attachment in attachments:
        neighbor = configs[attachment.router].bgp.get_neighbor(
            attachment.peer.peer_ip
        )
        if neighbor.export_policy is None:
            continue
        rib = simulation.rib(attachment.router)
        scoped_bound += len(wanted & set(rib))
        rib_wide += len(rib)

    evaluations = counter("verdict.export_evaluations")
    before = evaluations.value
    result = check_global_no_transit(
        configs, topology, checker=IncrementalGlobalChecker()
    )
    done = evaluations.value - before
    assert result.holds
    assert 0 < done <= scoped_bound
    assert done < rib_wide


def test_rib_entry_reads_without_copying():
    topology, configs = _network("waxman-22")
    simulation = BgpSimulation(configs)
    router = _border_routers(configs)[0]
    rib = simulation.rib(router)
    for prefix, entry in rib.items():
        assert simulation.rib_entry(router, prefix) is entry
        assert simulation.has_route(router, prefix)
    missing = Prefix.parse("192.0.2.0/24")
    assert simulation.rib_entry(router, missing) is None
    assert not simulation.has_route(router, missing)
    rib.clear()  # rib() still hands out a copy
    assert simulation.rib(router)
    for lookup in (simulation.rib_entry, simulation.has_route):
        with pytest.raises(KeyError):
            lookup("NO_SUCH_ROUTER", missing)
