"""Tests for the EgressPrependInvariant (incremental-policy extension)."""

import copy

import pytest

from repro.lightyear import EgressPrependInvariant, verify_invariant
from repro.netmodel import Action, Ipv4Address
from repro.netmodel.routing_policy import SetAsPathPrepend
from repro.topology.reference import build_reference_configs, egress_map_name


@pytest.fixture()
def hub_with_prepend(star7):
    configs = build_reference_configs(star7.topology)
    hub = configs["R1"]
    egress = hub.route_maps[egress_map_name(4)]
    for clause in egress.clauses:
        if clause.action is Action.PERMIT:
            clause.sets.append(SetAsPathPrepend(1, 2))
    return hub


def _invariant(count=2):
    return EgressPrependInvariant(
        router="R1",
        neighbor_ip=Ipv4Address.parse("3.0.0.2"),  # R4's hub-side address
        asn=1,
        count=count,
    )


class TestEgressPrependInvariant:
    def test_holds_on_prepending_config(self, hub_with_prepend):
        assert verify_invariant(hub_with_prepend, _invariant()) is None

    def test_violated_without_prepend(self, star7):
        configs = build_reference_configs(star7.topology)
        violation = verify_invariant(configs["R1"], _invariant())
        assert violation is not None
        assert "must be prepended 2 time(s)" in violation.message

    def test_violated_by_undercount(self, hub_with_prepend):
        hub = copy.deepcopy(hub_with_prepend)
        egress = hub.route_maps[egress_map_name(4)]
        for clause in egress.clauses:
            clause.sets = [
                SetAsPathPrepend(action.asn, 1)
                if isinstance(action, SetAsPathPrepend)
                else action
                for action in clause.sets
            ]
        violation = verify_invariant(hub, _invariant())
        assert violation is not None
        assert "prepended 1 time(s)" in violation.message

    def test_missing_attachment_reported(self, hub_with_prepend):
        hub = copy.deepcopy(hub_with_prepend)
        hub.bgp.neighbors["3.0.0.2"].export_policy = None
        violation = verify_invariant(hub, _invariant())
        assert violation is not None
        assert "No export route-map" in violation.message
