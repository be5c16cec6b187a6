"""Each synthesis fault must manifest exactly its documented error."""

import pytest

from repro.cisco import generate_cisco, parse_cisco
from repro.lightyear import no_transit_invariants, verify_invariants
from repro.llm import (
    IIP_SUPPRESSED_FAULTS,
    default_fault_assignment,
    make_synthesis_models,
    synthesis_fault_catalog,
)
from repro.llm.faults import DraftState
from repro.topology import verify_topology
from repro.topology.reference import build_reference_configs


@pytest.fixture()
def catalog(star7):
    return synthesis_fault_catalog(star7.topology)


def _draft(star7, router, catalog, *keys):
    references = build_reference_configs(star7.topology)
    draft = DraftState(references[router], generate_cisco)
    for key in keys:
        draft.inject(catalog[key])
    return draft


def _topology_issues(star7, router, draft):
    parsed = parse_cisco(draft.render())
    return verify_topology(parsed.config, star7.topology.router(router))


class TestSyntaxFaults:
    def test_cli_keywords_warn(self, star7, catalog):
        draft = _draft(star7, "R2", catalog, "cli_keywords")
        warnings = parse_cisco(draft.render()).warnings
        assert any("Interactive CLI" in w.comment for w in warnings)

    def test_inline_match_community_warns(self, star7, catalog):
        draft = _draft(star7, "R1", catalog, "inline_match_community")
        warnings = parse_cisco(draft.render()).warnings
        assert any("community-list name" in w.comment for w in warnings)

    def test_misplaced_neighbor_command_warns_generically(self, star7, catalog):
        draft = _draft(star7, "R1", catalog, "misplaced_neighbor_command")
        warnings = parse_cisco(draft.render()).warnings
        assert any(
            "unrecognized at this location" in w.comment
            and "FILTER_COMM_OUT_R7" in w.text
            for w in warnings
        )


class TestTopologyFaults:
    @pytest.mark.parametrize(
        "router,key,needle",
        [
            ("R1", "wrong_interface_ip", "Interface eth0/2 ip address"),
            ("R3", "wrong_local_as", "Local AS number"),
            ("R2", "wrong_router_id", "Router ID"),
            ("R2", "missing_neighbor", "Neighbor with IP address 1.0.0.1"),
            ("R2", "missing_network", "Network 1.0.0.0/24 not declared"),
            ("R1", "extra_network", "Incorrect network declaration"),
            ("R1", "extra_neighbor", "Incorrect neighbor declaration"),
        ],
    )
    def test_fault_detected_by_topology_verifier(
        self, star7, catalog, router, key, needle
    ):
        draft = _draft(star7, router, catalog, key)
        issues = _topology_issues(star7, router, draft)
        assert any(needle in issue.message for issue in issues), key

    def test_extra_neighbor_matches_table3_fields(self, star7, catalog):
        draft = _draft(star7, "R1", catalog, "extra_neighbor")
        issues = _topology_issues(star7, "R1", draft)
        assert any("7.0.0.2 AS 7" in issue.message for issue in issues)


class TestSemanticFaults:
    def _violations(self, star7, draft):
        parsed = parse_cisco(draft.render())
        invariants = no_transit_invariants(star7.topology)
        return verify_invariants({"R1": parsed.config}, invariants)

    def test_and_or_semantics_violates_egress_invariant(self, star7, catalog):
        draft = _draft(star7, "R1", catalog, "and_or_semantics")
        violations = self._violations(star7, draft)
        assert any(
            v.policy_name == "FILTER_COMM_OUT_R2" for v in violations
        )

    def test_egress_permits_tagged(self, star7, catalog):
        draft = _draft(star7, "R1", catalog, "egress_permits_tagged")
        violations = self._violations(star7, draft)
        assert any(
            v.policy_name == "FILTER_COMM_OUT_R4" for v in violations
        )

    def test_missing_ingress_tag(self, star7, catalog):
        draft = _draft(star7, "R1", catalog, "missing_ingress_tag")
        violations = self._violations(star7, draft)
        assert any("ADD_COMM_R5" in v.message for v in violations)

    def test_reference_draft_has_no_violations(self, star7, catalog):
        draft = _draft(star7, "R1", catalog)
        assert self._violations(star7, draft) == []


class TestAssignmentAndIips:
    def test_default_assignment_covers_all_routers(self, star7):
        assignment = default_fault_assignment(7)
        assert set(assignment) == {f"R{i}" for i in range(1, 8)}

    def test_hub_carries_policy_faults(self):
        assignment = default_fault_assignment(7)
        assert "and_or_semantics" in assignment["R1"]
        assert "misplaced_neighbor_command" in assignment["R1"]

    def test_small_networks_rejected(self):
        with pytest.raises(ValueError):
            default_fault_assignment(3)

    def test_iip_suppression(self, star7):
        with_iips = make_synthesis_models(
            star7.topology, iip_ids=IIP_SUPPRESSED_FAULTS.values()
        )["R1"]
        with_iips.send("generate R1")
        suppressed = set(IIP_SUPPRESSED_FAULTS)
        assert not (suppressed & set(with_iips.active_fault_keys()))

    def test_no_iips_means_more_faults(self, star7):
        bare = make_synthesis_models(star7.topology, iip_ids=())["R1"]
        bare.send("generate R1")
        assert "cli_keywords" in bare.active_fault_keys()

    def test_per_router_seeds_differ(self, star7):
        models = make_synthesis_models(star7.topology, seed=0)
        a, b = models["R2"], models["R3"]
        assert a._rng.random() != b._rng.random()
