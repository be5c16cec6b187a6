"""Analyzer rules against hand-built configs and reference cells."""

import re
from pathlib import Path

import pytest

from repro.analysis import RULES, analyze_configs, analyze_text
from repro.analysis.validation import CELLS, cell_id
from repro.cisco.generator import generate_cisco
from repro.netmodel.communities import Community
from repro.netmodel.device import RouterConfig
from repro.netmodel.ip import Prefix, PrefixRange
from repro.netmodel.prefixlist import PrefixList
from repro.netmodel.routing_policy import (
    Action,
    MatchCommunityInline,
    MatchPrefixList,
    RouteMap,
    RouteMapClause,
    SetMed,
    permit_all,
)
from repro.experiments.no_transit import run_no_transit_experiment
from repro.lightyear.invariants import EgressFilterInvariant, IngressTagInvariant
from repro.lightyear.verifier import verify_invariant
from repro.llm import fault_designations, synthesis_fault_catalog
from repro.llm.faults import DraftState, FaultTargetError
from repro.topology.families import generate_network
from repro.topology.context import topology_context
from repro.topology.reference import build_reference_configs
from repro.topology.verifier import verify_topology


def _cell_reports(family, size, **extra):
    topology = generate_network(family, size, **extra).topology
    configs = build_reference_configs(topology)
    texts = {name: generate_cisco(config) for name, config in configs.items()}
    return topology, configs, texts


def _bare(hostname="R1"):
    return RouterConfig(hostname=hostname, vendor="cisco")


class TestCleanReferenceCells:
    def test_star_reference_is_clean(self):
        topology, configs, texts = _cell_reports("star", 7)
        report = analyze_configs(configs, topology=topology, texts=texts)
        assert len(report) == 0, report.render_text()

    def test_border_reference_is_clean(self):
        topology, configs, texts = _cell_reports(
            "random", 8, seed=1, roles="c2i2h2"
        )
        report = analyze_configs(configs, topology=topology, texts=texts)
        assert len(report) == 0, report.render_text()


class TestReferenceRules:
    def test_undefined_prefix_list_is_high(self):
        config = _bare()
        config.route_maps["M"] = RouteMap(
            name="M",
            clauses=[
                RouteMapClause(
                    seq=10,
                    action=Action.PERMIT,
                    matches=[MatchPrefixList("NOPE")],
                )
            ],
        )
        report = analyze_configs({"R1": config})
        (finding,) = report.for_router("R1")
        assert finding.rule == "undefined-ref"
        assert finding.severity.value == "high"
        assert "NOPE" in finding.message
        assert finding.clause_seq == 10

    def test_unused_prefix_list_is_low(self):
        config = _bare()
        unused = PrefixList("ORPHAN")
        unused.add("permit", PrefixRange.exact(Prefix.parse("10.0.0.0/24")))
        config.add_prefix_list(unused)
        report = analyze_configs({"R1": config})
        rules = {finding.rule for finding in report}
        assert rules == {"unused-list"}

    def test_sets_on_deny_clause_are_noop(self):
        config = _bare()
        config.route_maps["M"] = RouteMap(
            name="M",
            clauses=[
                RouteMapClause(
                    seq=10,
                    action=Action.DENY,
                    sets=[SetMed(50)],
                ),
                RouteMapClause(seq=20, action=Action.PERMIT),
            ],
        )
        report = analyze_configs({"R1": config})
        assert "noop-set" in report.by_rule()

    def test_inline_community_match_is_high(self):
        config = _bare()
        config.route_maps["M"] = RouteMap(
            name="M",
            clauses=[
                RouteMapClause(
                    seq=10,
                    action=Action.PERMIT,
                    matches=[MatchCommunityInline(Community(100, 1))],
                )
            ],
        )
        report = analyze_configs({"R1": config})
        assert "inline-community-match" in report.by_rule()
        assert report.high >= 1


class TestShadowing:
    def test_duplicate_clause_is_shadowed(self):
        config = _bare()
        prefix_list = PrefixList("PL")
        prefix_list.add("permit", PrefixRange.exact(Prefix.parse("10.0.0.0/24")))
        config.add_prefix_list(prefix_list)
        config.route_maps["M"] = RouteMap(
            name="M",
            clauses=[
                RouteMapClause(
                    seq=10,
                    action=Action.PERMIT,
                    matches=[MatchPrefixList("PL")],
                ),
                RouteMapClause(
                    seq=20,
                    action=Action.DENY,
                    matches=[MatchPrefixList("PL")],
                ),
            ],
        )
        report = analyze_configs({"R1": config})
        shadowed = [f for f in report if f.rule == "shadowed-clause"]
        assert [f.clause_seq for f in shadowed] == [20]

    def test_reachable_clauses_are_not_shadowed(self):
        # The reference egress maps are deny-then-permit: every clause
        # reachable, so the rule must stay silent on them (precision).
        topology, configs, texts = _cell_reports(
            "random", 8, seed=1, roles="c2i2h2"
        )
        report = analyze_configs(configs, topology=topology, texts=texts)
        assert "shadowed-clause" not in report.by_rule()


def _guarded(topology, kind):
    """The first no-transit invariant of ``kind`` and its session."""
    invariant = next(
        item
        for item in topology_context(topology).invariants
        if isinstance(item, kind)
    )
    return invariant, invariant.router, str(invariant.neighbor_ip)


class TestRoleRules:
    def test_permissive_egress_leaks_transit(self):
        topology, configs, texts = _cell_reports(
            "random", 8, seed=1, roles="c2i2h2"
        )
        _, router, ip = _guarded(topology, EgressFilterInvariant)
        config = configs[router]
        neighbor = config.bgp.neighbors[ip]
        # Replace the egress filter with blanket permit: every other
        # slot's tagged routes now transit this session.
        map_name = neighbor.export_policy
        config.route_maps[map_name] = permit_all(map_name)
        report = analyze_configs(configs, topology=topology)
        leaks = [f for f in report if f.rule == "transit-leak"]
        assert any(f.router == router for f in leaks)

    def _missing_policy_finding(self, kind, attribute, rule):
        """Detach the first ``kind`` session's map: one finding on the
        session, with the verifier's missing-policy message."""
        topology, configs, texts = _cell_reports(
            "random", 8, seed=1, roles="c2i2h2"
        )
        invariant, router, ip = _guarded(topology, kind)
        setattr(configs[router].bgp.neighbors[ip], attribute, None)
        report = analyze_configs(configs, topology=topology)
        (finding,) = [
            f for f in report if f.rule == rule and f.router == router
        ]
        assert finding.ref == f"session {ip}"
        assert finding.clause_seq is None
        assert finding.message == (
            verify_invariant(configs[router], invariant).message
        )

    def test_missing_export_policy_is_flagged(self):
        self._missing_policy_finding(
            EgressFilterInvariant, "export_policy", "transit-leak"
        )

    def test_missing_import_policy_is_flagged(self):
        self._missing_policy_finding(
            IngressTagInvariant, "import_policy", "untagged-ingress"
        )

    def test_one_transit_leak_per_violated_egress_invariant(self):
        # Star-7's hub guards six spoke sessions, each filtering five
        # other slots' tags: a blanket permit violates each egress
        # invariant once, however many tags it leaks.
        topology, configs, texts = _cell_reports("star", 7)
        hub = configs["R1"]
        egress = [
            invariant
            for invariant in topology_context(topology).invariants_of["R1"]
            if isinstance(invariant, EgressFilterInvariant)
        ]
        for invariant in egress:
            name = hub.bgp.get_neighbor(invariant.neighbor_ip).export_policy
            hub.route_maps[name] = permit_all(name)
        report = analyze_configs(configs, topology=topology)
        leaks = [f for f in report if f.rule == "transit-leak"]
        expected = []
        for invariant in egress:
            violation = verify_invariant(hub, invariant)
            assert violation is not None
            route_map = hub.route_maps[violation.policy_name]
            clause = route_map.prepare(hub).find_clause(violation.witness)
            assert clause.action is Action.PERMIT
            expected.append(
                ("R1", f"route-map {route_map.name}", clause.seq, violation.message)
            )
        assert len(leaks) == len(egress) == 6
        assert sorted(
            (f.router, f.ref, f.clause_seq, f.message) for f in leaks
        ) == sorted(expected)
        assert all(f.severity.value == "high" and not f.fix_hint for f in leaks)

    def test_undefined_export_map_is_only_an_undefined_ref(self):
        topology, configs, texts = _cell_reports(
            "random", 8, seed=1, roles="c2i2h2"
        )
        _, router, ip = _guarded(topology, EgressFilterInvariant)
        neighbor = configs[router].bgp.neighbors[ip]
        del configs[router].route_maps[neighbor.export_policy]
        report = analyze_configs(configs, topology=topology)
        rules = [f.rule for f in report.for_router(router)]
        assert "undefined-ref" in rules
        assert "transit-leak" not in rules


#: Topology verifier issue kind (by value) -> the lint rule reporting it.
_ISSUE_RULES = {
    "missing_interface": "ifc-ip-mismatch",
    "interface_address_mismatch": "ifc-ip-mismatch",
    "missing_bgp": "local-as-mismatch",
    "local_as_mismatch": "local-as-mismatch",
    "router_id_mismatch": "router-id-mismatch",
    "missing_neighbor": "missing-neighbor",
    "incorrect_neighbor": "extra-neighbor",
    "missing_network": "missing-network",
    "incorrect_network": "extra-network",
}


def _conformance(report, router):
    return sorted(
        (f.rule, f.message)
        for f in report.for_router(router)
        if f.rule in _ISSUE_RULES.values()
    )


class TestConformance:
    def test_wrong_local_as_is_flagged(self):
        topology, configs, texts = _cell_reports("star", 7)
        configs["R3"].bgp.asn += 1
        report = analyze_configs(configs, topology=topology)
        assert any(
            f.rule == "local-as-mismatch" and f.router == "R3" for f in report
        )

    def test_missing_router_tolerated(self):
        # Campaign drafts can lack a router entirely; the analyzer must
        # not crash, and conformance only covers present configs.
        topology, configs, texts = _cell_reports("star", 7)
        del configs["R2"]
        report = analyze_configs(configs, topology=topology)
        assert len(report) == 0

    @pytest.mark.parametrize(
        "family, size, extra", CELLS, ids=[cell_id(*cell) for cell in CELLS]
    )
    def test_catalog_faults_lint_as_the_verifier_reports(
        self, family, size, extra
    ):
        topology, configs, _texts = _cell_reports(family, size, **extra)
        catalog = synthesis_fault_catalog(topology)
        checked = 0
        for key, router in sorted(fault_designations(topology).items()):
            if key not in catalog:
                continue
            state = DraftState(configs[router], generate_cisco)
            state.inject(catalog[key])
            try:
                faulted = state.current_config()
            except FaultTargetError:
                continue
            issues = verify_topology(faulted, topology.router(router))
            if not issues:
                continue  # the fault does not touch conformance
            report = analyze_configs(
                dict(configs, **{router: faulted}), topology=topology
            )
            assert _conformance(report, router) == sorted(
                (_ISSUE_RULES[issue.kind.value], issue.message)
                for issue in issues
            ), key
            checked += 1
        assert checked >= 6

    def test_wrong_remote_as_is_missing_plus_extra_neighbor(self):
        topology, configs, _texts = _cell_reports("chain", 5)
        neighbor = configs["R2"].bgp.sorted_neighbors()[0]
        neighbor.remote_as += 100
        report = analyze_configs(configs, topology=topology)
        assert [rule for rule, _ in _conformance(report, "R2")] == [
            "extra-neighbor",
            "missing-neighbor",
        ]

    def test_own_connected_link_subnet_is_no_extra_network(self):
        topology, configs, _texts = _cell_reports("chain", 5)
        spec = topology.router("R2")
        (link,) = [
            prefix
            for prefix in spec.connected_prefixes()
            if prefix not in spec.networks
        ]
        configs["R2"].bgp.networks.append(link)
        report = analyze_configs(configs, topology=topology)
        assert _conformance(report, "R2") == []

    def test_star_below_four_routers_is_rejected(self):
        with pytest.raises(ValueError, match=r"star size must be in \[4, 50\]"):
            run_no_transit_experiment(router_count=3)


class TestTextRules:
    def test_cli_keywords_at_top_level_fire(self):
        report = analyze_text("R1", "configure terminal\nhostname R1\n")
        assert any(f.rule == "cli-keywords" for f in report)

    def test_indented_exit_is_config_syntax(self):
        # Inside a block, ``exit`` is legitimate config-mode syntax —
        # only unindented CLI keywords are the cli_keywords fault shape.
        clean = "router bgp 100\n exit\n"
        assert len(analyze_text("R1", clean)) == 0

    def test_stray_ip_routing_fires(self):
        report = analyze_text("R1", "ip routing\nhostname R1\n")
        assert any(f.rule == "stray-ip-routing" for f in report)

    def test_unindented_neighbor_fires(self):
        text = "hostname R1\nneighbor 10.0.0.2 route-map M out\n"
        report = analyze_text("R1", text)
        assert any(f.rule == "misplaced-neighbor" for f in report)


class TestRulesTable:
    def test_every_rule_has_severity_and_description(self):
        assert RULES
        for rule, (severity, description) in RULES.items():
            assert rule == rule.lower()
            assert severity.value in ("high", "medium", "low")
            assert description

    def test_readme_table_matches(self):
        # The README's Rules table renders RULES; backticks and quotes
        # are markup there, so both sides drop them before comparing.
        readme = (Path(__file__).parents[2] / "README.md").read_text()
        rows = re.findall(r"^\| `([a-z-]+)` \| (\w+) \| (.*) \|$", readme, re.M)

        def plain(text):
            return text.replace("`", "").replace("'", "")

        assert {rule: (severity, plain(text)) for rule, severity, text in rows} == {
            rule: (severity.value, plain(description))
            for rule, (severity, description) in RULES.items()
        }
