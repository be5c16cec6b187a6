"""The policy analyzer: simulator-grounded static analysis of configs.

:class:`PolicyAnalyzer` walks every router's route-maps, prefix-lists,
community-lists, AS-path lists, ACLs, and BGP sessions and emits
structured :class:`~repro.analysis.findings.Finding` rows.  Rules fall
into four groups:

* **Reference rules** need only the config itself: undefined names
  (``undefined-ref``), unused definitions (``unused-list``), no-op set
  actions (``noop-set``), invalid inline community matches
  (``inline-community-match``), and community replacement where the
  reference idiom is additive tagging (``non-additive-community``).

* **Reachability rules** reuse the symbolic candidate grids of
  :mod:`repro.symbolic.candidates` the same way the invariant verifier
  does: a clause no grid route can reach is shadowed by earlier clauses
  (``shadowed-clause``).

* **Role rules** are the Lightyear local invariants of the topology
  context, checked by :func:`~repro.lightyear.verifier.verify_invariant`:
  one finding per violated invariant, with the verifier's message, at
  the clause its witness route hits (``transit-leak`` for an egress
  filter, ``untagged-ingress`` for an ingress tag).  On hub-shaped
  topologies the guarded sessions are the hub's internal spoke sessions
  — where the paper's Figure 4 policy lives — not the policy-free spoke
  externals.  Attachment sessions with only one policy direction are
  ``asymmetric-session``.

* **Conformance rules** report the issues of the paper's topology
  verifier (:func:`~repro.topology.verifier.verify_topology`, Table 3):
  interfaces, local AS, router id, (address, remote AS) neighbor pairs,
  and announced networks, each with the verifier's message.

:func:`analyze_text` adds the rendered-text rules the IR cannot see
(CLI mode keywords, ``ip routing``, unindented ``neighbor`` lines —
the catalog's three text-only faults).

Every rule is validated against the simulator by
:mod:`repro.analysis.validation`: zero HIGH findings across all clean
family cells, and 100% recall over the fault catalog.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..lightyear.invariants import EgressFilterInvariant, IngressTagInvariant
from ..lightyear.verifier import verify_invariant
from ..netmodel.communities import Community
from ..netmodel.device import RouterConfig
from ..netmodel.routing_policy import (
    Action,
    MatchAcl,
    MatchAsPathList,
    MatchCommunityInline,
    MatchCommunityList,
    MatchPrefixList,
    PolicyEvaluationError,
    RouteMap,
    SetAsPathPrepend,
    SetCommunity,
)
from ..obs import counter, span
from ..symbolic.candidates import CandidateUniverse
from ..topology.context import topology_context
from ..topology.model import RouterSpec, Topology
from ..topology.roles import RoleAssignment
from ..topology.verifier import TopologyIssueKind, verify_topology
from .findings import Finding, LintReport, Severity

__all__ = ["PolicyAnalyzer", "RULES", "analyze_configs", "analyze_text"]


#: rule id -> (severity, one-line description); the README's Rules
#: table repeats these word for word.
RULES: Dict[str, Tuple[Severity, str]] = {
    "undefined-ref": (
        Severity.HIGH,
        "a route-map clause or BGP session references an undefined "
        "prefix-list/community-list/as-path-list/ACL/route-map",
    ),
    "shadowed-clause": (
        Severity.MEDIUM,
        "no candidate route can reach the clause: earlier clauses "
        "capture its entire match set",
    ),
    "unused-list": (
        Severity.LOW,
        "a defined prefix-list/community-list/as-path-list/ACL is "
        "never referenced by any route-map",
    ),
    "noop-set": (
        Severity.LOW,
        "a set action can never change a route (sets on a deny "
        "clause, empty community set, non-positive prepend)",
    ),
    "inline-community-match": (
        Severity.HIGH,
        "a literal community in match position — invalid IOS; "
        "match must name a community-list",
    ),
    "non-additive-community": (
        Severity.MEDIUM,
        "set community without additive replaces every community "
        "the route carries",
    ),
    "transit-leak": (
        Severity.HIGH,
        "the export policy of a transit-forbidden session permits a "
        "route tagged with another role's shared community",
    ),
    "untagged-ingress": (
        Severity.HIGH,
        "the import policy of a transit-forbidden session permits "
        "routes without adding the session's role community",
    ),
    "asymmetric-session": (
        Severity.LOW,
        "an external session applies a policy in only one direction",
    ),
    "ifc-ip-mismatch": (
        Severity.HIGH,
        "an interface is missing or its address differs from the "
        "topology",
    ),
    "local-as-mismatch": (
        Severity.HIGH,
        "the BGP local AS differs from the topology's AS for this "
        "router",
    ),
    "router-id-mismatch": (
        Severity.HIGH,
        "the BGP router-id differs from the topology's router-id",
    ),
    "missing-neighbor": (
        Severity.HIGH,
        "a topology session (neighbor address, remote AS) is not configured",
    ),
    "extra-neighbor": (
        Severity.HIGH,
        "no topology session has the neighbor's address and remote AS",
    ),
    "missing-network": (
        Severity.HIGH,
        "a network the topology expects announced is not announced",
    ),
    "extra-network": (
        Severity.HIGH,
        "an announced network is not directly connected to the router",
    ),
    "cli-keywords": (
        Severity.HIGH,
        "interactive CLI mode keywords (configure terminal / exit / "
        "write) in a config file",
    ),
    "stray-ip-routing": (
        Severity.HIGH,
        "'ip routing' — an interactive exec command, not config",
    ),
    "misplaced-neighbor": (
        Severity.HIGH,
        "a neighbor statement outside its router bgp block",
    ),
}


_NAMED_MATCHES = (
    (MatchPrefixList, "prefix-list", "get_prefix_list"),
    (MatchCommunityList, "community-list", "get_community_list"),
    (MatchAsPathList, "as-path list", "get_as_path_list"),
    (MatchAcl, "access-list", "get_access_list"),
)

#: Topology verifier issue kind -> the lint rule that reports it.
_CONFORMANCE_RULES: Dict[TopologyIssueKind, str] = {
    TopologyIssueKind.MISSING_INTERFACE: "ifc-ip-mismatch",
    TopologyIssueKind.INTERFACE_ADDRESS_MISMATCH: "ifc-ip-mismatch",
    TopologyIssueKind.MISSING_BGP: "local-as-mismatch",
    TopologyIssueKind.LOCAL_AS_MISMATCH: "local-as-mismatch",
    TopologyIssueKind.ROUTER_ID_MISMATCH: "router-id-mismatch",
    TopologyIssueKind.MISSING_NEIGHBOR: "missing-neighbor",
    TopologyIssueKind.INCORRECT_NEIGHBOR: "extra-neighbor",
    TopologyIssueKind.MISSING_NETWORK: "missing-network",
    TopologyIssueKind.INCORRECT_NETWORK: "extra-network",
}

#: No-transit invariant type -> the lint rule that reports its violations.
_INVARIANT_RULES = {
    IngressTagInvariant: "untagged-ingress",
    EgressFilterInvariant: "transit-leak",
}

#: Exec-mode keywords the cli_keywords fault wraps configs in.
_CLI_KEYWORDS = frozenset({"configure terminal", "conf t", "end", "exit", "write"})


def analyze_text(router: str, text: str) -> List[Finding]:
    """The rendered-text rules: syntax-level mistakes the IR cannot
    carry (the catalog's three text-only faults).

    Clean :func:`~repro.cisco.generator.generate_cisco` output indents
    every body line, so an *unindented* CLI keyword, ``ip routing``, or
    ``neighbor`` statement is always an injected artifact.
    """
    findings: List[Finding] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if raw != raw.lstrip():
            continue  # indented: body of a block, not a stray command
        line = raw.strip()
        if line in _CLI_KEYWORDS:
            findings.append(
                Finding(
                    rule="cli-keywords",
                    severity=Severity.HIGH,
                    router=router,
                    ref="text",
                    line=number,
                    message=f"interactive CLI keyword {line!r} in config",
                    fix_hint="remove exec-mode commands from the file",
                )
            )
        elif line == "ip routing":
            findings.append(
                Finding(
                    rule="stray-ip-routing",
                    severity=Severity.HIGH,
                    router=router,
                    ref="text",
                    line=number,
                    message="'ip routing' is an exec command, not config",
                    fix_hint="delete the line",
                )
            )
        elif line.startswith("neighbor "):
            findings.append(
                Finding(
                    rule="misplaced-neighbor",
                    severity=Severity.HIGH,
                    router=router,
                    ref="text",
                    line=number,
                    message="neighbor statement outside a router bgp block",
                    fix_hint="move the line under 'router bgp'",
                )
            )
    return findings


class PolicyAnalyzer:
    """One analysis pass over a set of router configs.

    ``topology`` unlocks the conformance rules and, via its context,
    the no-transit invariants behind transit-leak / untagged-ingress and
    the role assignment behind asymmetric-session; without it only the
    per-config rules run.  ``texts`` maps router names to rendered
    config text for the text rules.
    """

    def __init__(
        self,
        configs: Dict[str, RouterConfig],
        topology: Optional[Topology] = None,
        texts: Optional[Dict[str, str]] = None,
    ) -> None:
        self.configs = configs
        self.topology = topology
        self.texts = texts or {}
        self.roles: Optional[RoleAssignment] = None
        self.hub = False
        self.invariants: Tuple[object, ...] = ()
        if topology is not None and topology.externals:
            context = topology_context(topology)
            self.roles = context.roles
            self.hub = context.hub_star
            self.invariants = context.invariants

    # -- entry point -----------------------------------------------------------

    def analyze(self) -> LintReport:
        report = LintReport()
        with span("lint", routers=len(self.configs)):
            counter("analysis.runs").inc()
            for name in sorted(self.configs):
                config = self.configs[name]
                self._check_references(report, config)
                self._check_route_maps(report, config)
                self._check_unused(report, config)
            if self.topology is not None:
                for name in sorted(self.configs):
                    if name in self.topology.routers:
                        self._check_conformance(
                            report,
                            self.configs[name],
                            self.topology.router(name),
                        )
            self._check_sessions(report)
            for name in sorted(self.texts):
                report.extend(analyze_text(name, self.texts[name]))
            report.sort()
            counter("analysis.findings").inc(len(report))
            counter("analysis.findings_high").inc(report.high)
        return report

    # -- reference rules -------------------------------------------------------

    def _map_undefined(self, config: RouterConfig, route_map: RouteMap) -> bool:
        """Whether any clause references an undefined named structure
        (such maps cannot be probed — evaluation would raise)."""
        for clause in route_map.clauses:
            for condition in clause.matches:
                for kind, _label, getter in _NAMED_MATCHES:
                    if isinstance(condition, kind):
                        if getattr(config, getter)(condition.name) is None:
                            return True
        return False

    def _check_references(self, report: LintReport, config: RouterConfig) -> None:
        for map_name in sorted(config.route_maps):
            route_map = config.route_maps[map_name]
            for clause in route_map.clauses:
                for condition in clause.matches:
                    for kind, label, getter in _NAMED_MATCHES:
                        if not isinstance(condition, kind):
                            continue
                        if getattr(config, getter)(condition.name) is None:
                            report.add(
                                Finding(
                                    rule="undefined-ref",
                                    severity=Severity.HIGH,
                                    router=config.hostname,
                                    ref=f"route-map {map_name}",
                                    clause_seq=clause.seq,
                                    message=(
                                        f"undefined {label} "
                                        f"{condition.name!r}"
                                    ),
                                    fix_hint=(
                                        f"define {label} {condition.name} "
                                        f"or drop the match"
                                    ),
                                )
                            )
        if config.bgp is None:
            return
        for neighbor in config.bgp.sorted_neighbors():
            for direction, policy in (
                ("in", neighbor.import_policy),
                ("out", neighbor.export_policy),
            ):
                if policy is not None and policy not in config.route_maps:
                    report.add(
                        Finding(
                            rule="undefined-ref",
                            severity=Severity.HIGH,
                            router=config.hostname,
                            ref=f"session {neighbor.key()}",
                            message=(
                                f"undefined route-map {policy!r} "
                                f"applied {direction}"
                            ),
                            fix_hint=f"define route-map {policy}",
                        )
                    )
        for redistribution in config.bgp.redistributions:
            name = redistribution.route_map
            if name is not None and name not in config.route_maps:
                report.add(
                    Finding(
                        rule="undefined-ref",
                        severity=Severity.HIGH,
                        router=config.hostname,
                        ref=f"redistribute {redistribution.protocol.value}",
                        message=f"undefined route-map {name!r}",
                        fix_hint=f"define route-map {name}",
                    )
                )

    # -- per-map rules (shadowing, no-op sets, inline matches) -----------------

    def _check_route_maps(self, report: LintReport, config: RouterConfig) -> None:
        for map_name in sorted(config.route_maps):
            route_map = config.route_maps[map_name]
            self._check_set_actions(report, config, route_map)
            self._check_shadowing(report, config, route_map)

    def _check_set_actions(
        self, report: LintReport, config: RouterConfig, route_map: RouteMap
    ) -> None:
        for clause in route_map.clauses:
            ref = f"route-map {route_map.name}"
            for condition in clause.matches:
                if isinstance(condition, MatchCommunityInline):
                    report.add(
                        Finding(
                            rule="inline-community-match",
                            severity=Severity.HIGH,
                            router=config.hostname,
                            ref=ref,
                            clause_seq=clause.seq,
                            message=(
                                f"literal community "
                                f"{condition.community} in match "
                                f"position (invalid IOS)"
                            ),
                            fix_hint=(
                                "declare a community-list and match it "
                                "by name"
                            ),
                        )
                    )
            if clause.action is Action.DENY and clause.sets:
                report.add(
                    Finding(
                        rule="noop-set",
                        severity=Severity.LOW,
                        router=config.hostname,
                        ref=ref,
                        clause_seq=clause.seq,
                        message=(
                            f"{len(clause.sets)} set action(s) on a deny "
                            f"clause are never applied"
                        ),
                        fix_hint="drop the sets or make the clause permit",
                    )
                )
            for action in clause.sets:
                if isinstance(action, SetCommunity):
                    if not action.communities:
                        report.add(
                            Finding(
                                rule="noop-set",
                                severity=Severity.LOW,
                                router=config.hostname,
                                ref=ref,
                                clause_seq=clause.seq,
                                message="set community with no communities",
                                fix_hint="name the communities to set",
                            )
                        )
                    elif not action.additive and clause.action is Action.PERMIT:
                        report.add(
                            Finding(
                                rule="non-additive-community",
                                severity=Severity.MEDIUM,
                                router=config.hostname,
                                ref=ref,
                                clause_seq=clause.seq,
                                message=(
                                    "set community without additive "
                                    "replaces the route's communities"
                                ),
                                fix_hint="append the additive keyword",
                            )
                        )
                elif isinstance(action, SetAsPathPrepend) and action.count <= 0:
                    report.add(
                        Finding(
                            rule="noop-set",
                            severity=Severity.LOW,
                            router=config.hostname,
                            ref=ref,
                            clause_seq=clause.seq,
                            message="as-path prepend with count <= 0",
                            fix_hint="prepend at least once",
                        )
                    )

    def _check_shadowing(
        self, report: LintReport, config: RouterConfig, route_map: RouteMap
    ) -> None:
        if len(route_map.clauses) < 2:
            return
        if self._map_undefined(config, route_map):
            return  # undefined-ref already reported; probing would raise
        for clause in route_map.clauses:
            for condition in clause.matches:
                # Grid routes carry empty AS paths and the grid has no
                # ACL-derived prefixes, so reachability over the grid
                # would under-approximate these match kinds.
                if isinstance(condition, (MatchAsPathList, MatchAcl)):
                    return
        universe = CandidateUniverse.for_policy(config, route_map)
        prepared = route_map.prepare(config)
        fired: Set[int] = set()
        try:
            for route in universe.cached_routes():
                clause = prepared.find_clause(route)
                if clause is not None:
                    fired.add(clause.seq)
        except PolicyEvaluationError:
            return
        for clause in route_map.clauses:
            if clause.seq not in fired:
                report.add(
                    Finding(
                        rule="shadowed-clause",
                        severity=Severity.MEDIUM,
                        router=config.hostname,
                        ref=f"route-map {route_map.name}",
                        clause_seq=clause.seq,
                        message=(
                            "clause is unreachable: earlier clauses "
                            "capture every candidate route it matches"
                        ),
                        fix_hint=(
                            "reorder the clauses or delete the dead one"
                        ),
                    )
                )

    # -- unused definitions ----------------------------------------------------

    def _check_unused(self, report: LintReport, config: RouterConfig) -> None:
        referenced: Dict[str, Set[str]] = {
            "prefix-list": set(),
            "community-list": set(),
            "as-path list": set(),
            "access-list": set(),
        }
        originated: Set[Community] = set()
        for route_map in config.route_maps.values():
            for clause in route_map.clauses:
                for condition in clause.matches:
                    for kind, label, _getter in _NAMED_MATCHES:
                        if isinstance(condition, kind):
                            referenced[label].add(condition.name)
                for action in clause.sets:
                    if isinstance(action, SetCommunity):
                        originated.update(action.communities)
        defined = (
            ("prefix-list", config.prefix_lists),
            ("community-list", config.community_lists),
            ("as-path list", config.as_path_lists),
            ("access-list", config.access_lists),
        )
        for label, table in defined:
            for name in sorted(table):
                if name in referenced[label]:
                    continue
                if label == "community-list":
                    # The reference layout defines every role slot's
                    # list on every border, but a router's own slot is
                    # only *originated* (tagged on ingress), never
                    # matched — that is by design, not dead config.
                    permitted = table[name].permitted_communities()
                    if permitted and permitted <= originated:
                        continue
                report.add(
                    Finding(
                        rule="unused-list",
                        severity=Severity.LOW,
                        router=config.hostname,
                        ref=f"{label} {name}",
                        message=f"{label} {name!r} is never referenced",
                        fix_hint="delete it or reference it",
                    )
                )

    # -- conformance rules (config vs topology) --------------------------------

    def _check_conformance(
        self, report: LintReport, config: RouterConfig, spec: RouterSpec
    ) -> None:
        for issue in verify_topology(config, spec):
            report.add(
                Finding(
                    rule=_CONFORMANCE_RULES[issue.kind],
                    severity=Severity.HIGH,
                    router=config.hostname,
                    ref="topology",
                    message=issue.message,
                )
            )

    # -- role rules (transit-leak, untagged-ingress, asymmetry) ----------------

    def _check_sessions(self, report: LintReport) -> None:
        """One finding per violated no-transit invariant, with the
        verifier's message, at the clause its witness route hits."""
        for invariant in self.invariants:
            config = self.configs.get(invariant.router)
            if config is None or config.bgp is None:
                continue  # conformance rules already flag missing BGP
            if config.bgp.get_neighbor(invariant.neighbor_ip) is None:
                continue  # missing-neighbor already flags the session
            violation = verify_invariant(config, invariant)
            if violation is None:
                continue
            ref, clause_seq = f"session {invariant.neighbor_ip}", None
            if violation.policy_name:  # a map is attached
                route_map = config.route_maps.get(violation.policy_name)
                if route_map is None or self._map_undefined(config, route_map):
                    continue  # undefined-ref already flags the map
                ref = f"route-map {route_map.name}"
                clause = route_map.prepare(config).find_clause(violation.witness)
                clause_seq = clause.seq
            report.add(
                Finding(
                    rule=_INVARIANT_RULES[type(invariant)],
                    severity=Severity.HIGH,
                    router=config.hostname,
                    ref=ref,
                    clause_seq=clause_seq,
                    message=violation.message,
                )
            )
        if self.roles is not None and not self.hub:
            self._check_session_symmetry(report)

    def _check_session_symmetry(self, report: LintReport) -> None:
        assert self.roles is not None
        attachments = list(self.roles.transit_forbidden()) + list(
            self.roles.customers
        )
        for attachment in attachments:
            config = self.configs.get(attachment.router)
            if config is None or config.bgp is None:
                continue
            neighbor = config.bgp.neighbors.get(str(attachment.peer.peer_ip))
            if neighbor is None:
                continue
            has_import = neighbor.import_policy is not None
            has_export = neighbor.export_policy is not None
            if has_import != has_export:
                missing = "import" if has_export else "export"
                report.add(
                    Finding(
                        rule="asymmetric-session",
                        severity=Severity.LOW,
                        router=config.hostname,
                        ref=f"session {neighbor.key()}",
                        message=(
                            f"external session to "
                            f"{attachment.role_name} has no "
                            f"{missing} policy"
                        ),
                        fix_hint=f"attach an {missing} policy or drop both",
                    )
                )


def analyze_configs(
    configs: Dict[str, RouterConfig],
    topology: Optional[Topology] = None,
    texts: Optional[Dict[str, str]] = None,
) -> LintReport:
    """Run the full analyzer over a config set (the `repro lint` core)."""
    return PolicyAnalyzer(configs, topology=topology, texts=texts).analyze()
