"""Fault catalog for the no-transit local-synthesis use case (§4).

Three families, matching §4.1's error classification:

* **syntax** — interactive CLI keywords, inline ``match community``
  values, and the misplaced ``neighbor`` command of §4.2;
* **topology** — the seven Table 3 inconsistencies (wrong interface IP,
  wrong local AS, wrong router-id, missing neighbor/network, extra
  network/neighbor);
* **semantic** — egress filters that pass tagged routes, ingress maps
  that do not tag, the non-additive ``set community``, and §4.2's
  AND/OR match-semantics confusion (unfixable from the generated
  counterexample; needs the "separate stanza" human prompt).

Fault keys suppressed by Initial Instruction Prompts are listed in
:data:`IIP_SUPPRESSED_FAULTS` — supplying the IIP removes them from the
initial draft, reproducing §4.2's before/after.

Fault *addressing* dispatches on topology family.  The star catalog
keeps Table 3's literal targets (neighbor ``1.0.0.1``, network
``1.0.0.0/24``, the hub's ``eth0/2``); every other family derives the
equivalent artifact from the topology itself — a router's first
internal BGP neighbor, its first announced link subnet, its ISP-facing
interface.  A transform whose target is absent from the draft raises
:class:`~repro.llm.faults.FaultTargetError` instead of silently
no-opping, so a misassigned fault fails loudly rather than passing
every check vacuously.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from ..errors import ErrorCategory
from ..netmodel.communities import Community
from ..netmodel.device import RouterConfig
from ..netmodel.bgp import BgpNeighbor
from ..netmodel.ip import Ipv4Address, Prefix
from ..netmodel.routing_policy import (
    Action,
    MatchCommunityInline,
    MatchCommunityList,
    RouteMapClause,
    SetCommunity,
)
from ..topology.context import topology_context
from ..topology.families import isp_attachments
from ..topology.generator import ingress_community
from ..topology.model import Topology
from ..topology.roles import attachment_isp_index
from .faults import Fault, FaultTargetError

__all__ = [
    "IIP_SUPPRESSED_FAULTS",
    "MULTIHOME_FAULT_KEY",
    "SYNTHESIS_SIDE_POOL",
    "border_fault_assignment",
    "default_fault_assignment",
    "fault_assignment",
    "fault_designations",
    "multihome_fault_target",
    "synthesis_fault_catalog",
]

# The role-aware fault family: present in a topology's catalog only
# when that topology actually carries a multi-homed transit-forbidden
# ISP (two attachments sharing one community slot).
MULTIHOME_FAULT_KEY = "multihome_untagged_home"

# fault key -> the IIP id whose presence suppresses it (§4.2's four IIPs;
# the misplaced-keywords IIP covers CLI prompts and wrong keywords both).
IIP_SUPPRESSED_FAULTS = {
    "cli_keywords": "no-cli-keywords",
    "inline_match_community": "match-via-community-list",
    "non_additive_set_community": "additive-keyword",
}

SYNTHESIS_SIDE_POOL = ("stray_ip_routing",)


def default_fault_assignment(router_count: int) -> Dict[str, List[str]]:
    """Which faults each router's first draft carries (default seed).

    The hub concentrates the policy errors (it holds all the policy);
    two spokes carry the Table 3 topology errors; the rest draft clean —
    mirroring §4.2 where "some GPT-4 errors were more common" but not
    universal.
    """
    if router_count < 4:
        raise ValueError("the default assignment needs at least 4 routers")
    assignment: Dict[str, List[str]] = {
        name: [] for name in (f"R{i}" for i in range(1, router_count + 1))
    }
    assignment["R1"] = [
        "cli_keywords",
        "inline_match_community",
        "non_additive_set_community",
        "misplaced_neighbor_command",
        "and_or_semantics",
        "wrong_interface_ip",
        "extra_network",
        "extra_neighbor",
        "egress_permits_tagged",
    ]
    if router_count >= 5:
        assignment["R1"].append("missing_ingress_tag")
    assignment["R2"] = [
        "cli_keywords",
        "wrong_router_id",
        "missing_neighbor",
        "missing_network",
    ]
    assignment["R3"] = ["wrong_local_as"]
    return assignment


def border_fault_assignment(topology: Topology) -> Dict[str, List[str]]:
    """Default faults for border-policy families (chain/ring/mesh/...).

    The policy faults target concrete route-map names
    (``FILTER_COMM_OUT_R2`` and friends), which in a border family live
    on the router of the same index — so each lands on the router that
    actually owns its map, and only when that router carries an ISP.
    The addressed topology faults (missing neighbor/network) resolve
    their targets per router, so R2 carries them in every family just
    as it does in the star wherever its target exists (see
    :func:`fault_assignment`).
    """
    names = topology.router_names()
    count = len(names)
    if count < 4:
        raise ValueError("the default assignment needs at least 4 routers")
    attachments = isp_attachments(topology)
    isp_routers = {peer.router for peer in attachments}
    assignment: Dict[str, List[str]] = {name: [] for name in names}

    def put(router: str, *keys: str) -> None:
        if router in assignment:
            assignment[router].extend(keys)

    put("R1", "cli_keywords", "extra_network", "extra_neighbor")
    put("R2", "cli_keywords", "wrong_router_id", "missing_neighbor",
        "missing_network")
    put("R3", "wrong_local_as", "wrong_interface_ip")
    and_or_router, _ = _and_or_owner(topology)
    put(and_or_router, "and_or_semantics")
    if "R3" in isp_routers:
        put("R3", "non_additive_set_community")
    if "R4" in isp_routers:
        put("R4", "egress_permits_tagged")
    if count >= 5 and "R5" in isp_routers:
        put("R5", "missing_ingress_tag")
    inline_owner = f"R{min(6, count)}"
    # At four routers R4 also carries egress_permits_tagged, which drops
    # a two-slot egress map's only deny clause: nothing left to corrupt.
    slots = {attachment_isp_index(peer) for peer in attachments}
    if inline_owner in isp_routers and not (count == 4 and len(slots) < 3):
        put(inline_owner, "inline_match_community")
    last = f"R{count}"
    if last in isp_routers and last != inline_owner:
        put(last, "misplaced_neighbor_command")
    return assignment


def fault_assignment(topology: Topology) -> Dict[str, List[str]]:
    """The default seed's per-router fault keys for ``topology``.

    Hub-shaped networks take the star layout, everything else the
    border layout.  Either way an addressed fault lands only where its
    target artifact exists: a hub-shaped random graph's R2 may announce
    no link subnet, a border R3 may carry no external interface, and
    assigning a fault with no target would abort the draft with
    FaultTargetError.
    """
    assignment = (
        default_fault_assignment(len(topology.routers))
        if topology_context(topology).hub_star
        else border_fault_assignment(topology)
    )
    for key, targets_of in (
        ("missing_neighbor", _internal_neighbor_targets),
        ("missing_network", _link_network_targets),
        ("wrong_interface_ip", _interface_targets),
    ):
        targets = targets_of(topology)
        for router, keys in assignment.items():
            if key in keys and router not in targets:
                keys.remove(key)
    return assignment


def fault_designations(topology: Topology) -> Dict[str, str]:
    """Which router each fault key is designated to land on, derived
    from the topology's default assignment (first carrier in router
    order).  Side-pool faults default to R1.  Faults absent from the
    assignment (e.g. ``missing_ingress_tag`` below five routers) are
    absent from the mapping."""
    assignment = fault_assignment(topology)
    designations: Dict[str, str] = {}
    for router in topology.router_names():
        for key in assignment.get(router, []):
            designations.setdefault(key, router)
    for key in SYNTHESIS_SIDE_POOL:
        designations.setdefault(key, "R1")
    multihome = multihome_fault_target(topology)
    if multihome is not None:
        designations.setdefault(MULTIHOME_FAULT_KEY, multihome[0])
    return designations


def multihome_fault_target(
    topology: Topology,
) -> "Tuple[str, str, object] | None":
    """(router, ingress map, shared community) of the *second* home of
    the first multi-homed transit-forbidden ISP, or ``None`` when the
    topology has no multi-homed group.

    This is the role-aware fault family's address: the attachment whose
    draft can silently break the shared-tag discipline while every
    other home of the same ISP keeps tagging — the per-ISP (rather than
    per-border-router) failure mode the multi-homed no-transit argument
    exists to catch.
    """
    from ..topology.reference import ingress_map_name

    context = topology_context(topology)
    if context.hub_star:
        return None  # hub policy: no role assignment, never multi-homed
    roles = context.roles
    for index in roles.indices():
        group = roles.groups[index]
        if len(group) > 1:
            second_home = group[1]
            # The map is named for the shared community *slot*, so both
            # homes carry an identically-named map — the fault corrupts
            # the copy on the second home's router only.
            return (
                second_home.router,
                ingress_map_name(index),
                ingress_community(index),
            )
    return None


# -- per-family target resolution ---------------------------------------------


def _internal_neighbor_targets(topology: Topology) -> Dict[str, str]:
    """router -> IP (string) of its first internal BGP neighbor."""
    internal = set(topology.routers)
    targets: Dict[str, str] = {}
    for name in topology.router_names():
        for spec in topology.router(name).neighbors:
            if spec.peer_name in internal:
                targets[name] = str(spec.ip)
                break
    return targets


def _link_network_targets(topology: Topology) -> Dict[str, Prefix]:
    """router -> the first link subnet that router announces."""
    link_subnets = {link.subnet for link in topology.links}
    targets: Dict[str, Prefix] = {}
    for name in topology.router_names():
        for network in topology.router(name).networks:
            if network in link_subnets:
                targets[name] = network
                break
    return targets


def _interface_targets(topology: Topology) -> Dict[str, str]:
    """router -> the interface whose address the fault corrupts.

    Star: the hub's ``eth0/2`` (Table 3's literal example).  Border
    families: each ISP-attached router's external interface — the one
    artifact guaranteed to exist wherever the fault is assigned.
    """
    if topology_context(topology).hub_star:
        hub = topology.router("R1")
        if hub.interface("eth0/2") is not None:
            return {"R1": "eth0/2"}
        return {}
    targets: Dict[str, str] = {}
    for peer in isp_attachments(topology):
        targets.setdefault(peer.router, peer.interface)
    return targets


def _and_or_owner(topology: Topology) -> Tuple[str, str]:
    """(router carrying the AND/OR fault, egress map it corrupts).

    Star: the hub owns every egress map; §4.2's example corrupts
    ``FILTER_COMM_OUT_R2``.  Border: the map lives on its own router —
    R2 when R2 carries an attachment, else the first attached router
    (the dumbbell's cores are attachment-free) — and is named for the
    attachment's community slot, which under multi-homing need not
    equal the router index.
    """
    context = topology_context(topology)
    if context.hub_star:
        return "R1", "FILTER_COMM_OUT_R2"
    isp_routers = [peer.router for peer in isp_attachments(topology)]
    if "R2" in isp_routers:
        owner = "R2"
    elif isp_routers:
        owner = isp_routers[0]
    else:
        owner = "R2"
    return owner, context.egress_maps.get(owner, "FILTER_COMM_OUT_R2")


def _resolve_map(
    topology: Topology, router: str, direction: str, fallback: str
) -> str:
    """The actual ingress/egress map name on ``router``'s attachment.

    The star's spoke-indexed names happen to coincide with the slot
    resolution (spoke Rj's maps are named for slot j), so one helper
    serves both placements; routers without an attachment keep the
    historical literal — their faults are never assigned there anyway.
    """
    context = topology_context(topology)
    if context.hub_star:
        return fallback
    maps = context.ingress_maps if direction == "ingress" else context.egress_maps
    return maps.get(router, fallback)


def synthesis_fault_catalog(topology: Topology) -> Dict[str, Fault]:
    """Build the catalog for a given topology (it needs concrete
    addresses, map names, and the router count)."""
    router_count = len(topology.routers)
    neighbor_targets = _internal_neighbor_targets(topology)
    network_targets = _link_network_targets(topology)
    interface_targets = _interface_targets(topology)
    and_or_router, and_or_map = _and_or_owner(topology)
    # Table 3 phrases its prompts against R2's draft; the pattern for an
    # addressed fault is derived from the designated carrier's target.
    neighbor_ip = neighbor_targets.get("R2", "1.0.0.1")
    link_network = network_targets.get("R2", Prefix.parse("1.0.0.0/24"))
    interface_owner = "R1" if topology_context(topology).hub_star else "R3"
    interface_name = interface_targets.get(interface_owner, "eth0/2")
    faults: List[Fault] = []

    # -- syntax ----------------------------------------------------------------

    faults.append(
        Fault(
            key="cli_keywords",
            label="Interactive CLI keywords in config file",
            category=ErrorCategory.SYNTAX,
            fixable_by_generated_prompt=True,
            prompt_patterns=(
                r"Interactive CLI command",
                r"configure terminal",
            ),
            text_transform=lambda text: "configure terminal\n"
            + text
            + "exit\nwrite\n",
        )
    )
    faults.append(
        Fault(
            key="stray_ip_routing",
            label="Unnecessary 'ip routing' statement",
            category=ErrorCategory.SYNTAX,
            fixable_by_generated_prompt=True,
            prompt_patterns=(r"ip routing",),
            text_transform=lambda text: "ip routing\n" + text,
        )
    )
    inline_target = _resolve_map(
        topology,
        f"R{min(6, router_count)}",
        "egress",
        f"FILTER_COMM_OUT_R{min(6, router_count)}",
    )
    faults.append(
        Fault(
            key="inline_match_community",
            label="match community with a literal value",
            category=ErrorCategory.SYNTAX,
            fixable_by_generated_prompt=True,
            prompt_patterns=(
                r"community-list name",
                r"match community expects",
            ),
            ir_transform=_make_inline_match(inline_target),
        )
    )
    misplaced_map = _resolve_map(
        topology,
        f"R{router_count}",
        "egress",
        f"FILTER_COMM_OUT_R{router_count}",
    )
    misplaced_pattern = (
        rf"neighbor \S+ route-map {re.escape(misplaced_map)} out"
    )
    faults.append(
        Fault(
            key="misplaced_neighbor_command",
            label="neighbor command outside the router bgp block",
            category=ErrorCategory.SYNTAX,
            fixable_by_generated_prompt=False,
            prompt_patterns=(misplaced_pattern,),
            human_prompt_patterns=(r"router bgp block", r"under .router bgp."),
            human_prompt=(
                "All network and neighbor commands must be placed under "
                'the "router bgp" block. Move the neighbor route-map '
                "statement back inside the router bgp block."
            ),
            text_transform=_make_misplace_neighbor(misplaced_map),
        )
    )

    # -- topology ---------------------------------------------------------------

    faults.append(
        Fault(
            key="wrong_interface_ip",
            label="Interface IP address does not match the topology",
            category=ErrorCategory.TOPOLOGY,
            fixable_by_generated_prompt=True,
            prompt_patterns=(
                rf"Interface {re.escape(interface_name)} ip address",
            ),
            ir_transform=_shift_interface_ip(interface_targets),
        )
    )
    faults.append(
        Fault(
            key="wrong_local_as",
            label="Local AS number does not match",
            category=ErrorCategory.TOPOLOGY,
            fixable_by_generated_prompt=True,
            prompt_patterns=(r"Local AS number",),
            ir_transform=_wrong_local_as,
        )
    )
    faults.append(
        Fault(
            key="wrong_router_id",
            label="Router ID does not match",
            category=ErrorCategory.TOPOLOGY,
            fixable_by_generated_prompt=True,
            prompt_patterns=(r"Router ID",),
            ir_transform=_wrong_router_id,
        )
    )
    faults.append(
        Fault(
            key="missing_neighbor",
            label="BGP neighbor not declared",
            category=ErrorCategory.TOPOLOGY,
            fixable_by_generated_prompt=True,
            prompt_patterns=(
                rf"Neighbor with IP address {re.escape(neighbor_ip)}",
            ),
            ir_transform=_drop_internal_neighbor(neighbor_targets),
        )
    )
    faults.append(
        Fault(
            key="missing_network",
            label="Network not declared",
            category=ErrorCategory.TOPOLOGY,
            fixable_by_generated_prompt=True,
            prompt_patterns=(
                rf"Network {re.escape(str(link_network))} not declared",
            ),
            ir_transform=_drop_link_network(network_targets),
        )
    )
    faults.append(
        Fault(
            key="extra_network",
            label="Network not directly connected",
            category=ErrorCategory.TOPOLOGY,
            fixable_by_generated_prompt=True,
            prompt_patterns=(r"Incorrect network declaration",),
            ir_transform=_make_extra_network(router_count),
        )
    )
    faults.append(
        Fault(
            key="extra_neighbor",
            label="Neighbor that does not exist in the topology",
            category=ErrorCategory.TOPOLOGY,
            fixable_by_generated_prompt=True,
            prompt_patterns=(r"Incorrect neighbor declaration",),
            ir_transform=_make_extra_neighbor(router_count),
        )
    )

    # -- semantic -----------------------------------------------------------------

    faults.append(
        Fault(
            key="and_or_semantics",
            label="AND semantics used for community filtering",
            category=ErrorCategory.SEMANTIC,
            fixable_by_generated_prompt=False,
            prompt_patterns=(and_or_map,),
            human_prompt_patterns=(r"separate (route-map )?stanza",),
            human_prompt=(
                "Multiple match statements inside one route-map stanza are "
                "combined with AND semantics. To filter routes carrying ANY "
                "of the communities, declare each match statement in a "
                "separate route-map stanza with its own deny action."
            ),
            ir_transform=_merge_deny_clauses(and_or_map),
        )
    )
    egress_target = _resolve_map(topology, "R4", "egress", "FILTER_COMM_OUT_R4")
    faults.append(
        Fault(
            key="egress_permits_tagged",
            label="Egress filter passes a tagged route",
            category=ErrorCategory.SEMANTIC,
            fixable_by_generated_prompt=True,
            prompt_patterns=(re.escape(egress_target),),
            ir_transform=_drop_first_deny(egress_target),
        )
    )
    ingress_target = _resolve_map(topology, "R5", "ingress", "ADD_COMM_R5")
    faults.append(
        Fault(
            key="missing_ingress_tag",
            label="Ingress map does not add the community",
            category=ErrorCategory.SEMANTIC,
            fixable_by_generated_prompt=True,
            prompt_patterns=(re.escape(ingress_target),),
            ir_transform=_drop_ingress_sets(ingress_target),
        )
    )
    non_additive_target = _resolve_map(topology, "R3", "ingress", "ADD_COMM_R3")
    faults.append(
        Fault(
            key="non_additive_set_community",
            label="set community without the additive keyword",
            category=ErrorCategory.SEMANTIC,
            fixable_by_generated_prompt=True,
            prompt_patterns=(r"additive", r"non-additively"),
            ir_transform=_make_non_additive(non_additive_target),
        )
    )

    # -- role-aware fault family ----------------------------------------------
    # Only topologies with a multi-homed ISP carry this fault: exactly
    # one home stops adding the community slot it *shares* with its
    # sibling attachments, so the ISP's other homes keep the discipline
    # while this one opens a transit path.
    multihome = multihome_fault_target(topology)
    if multihome is not None:
        _, multihome_map, multihome_tag = multihome
        faults.append(
            Fault(
                key=MULTIHOME_FAULT_KEY,
                label="One home of a multi-homed ISP drops the shared tag",
                category=ErrorCategory.SEMANTIC,
                fixable_by_generated_prompt=True,
                prompt_patterns=(re.escape(multihome_map),),
                ir_transform=_drop_home_tag(multihome_map, multihome_tag),
            )
        )
    return {fault.key: fault for fault in faults}


# -- transform builders ------------------------------------------------------------


def _require_map(config: RouterConfig, map_name: str, fault_key: str):
    route_map = config.route_maps.get(map_name)
    if route_map is None:
        raise FaultTargetError(
            f"{fault_key}: {config.hostname} has no route-map {map_name}"
        )
    return route_map


def _make_inline_match(map_name: str):
    def transform(config: RouterConfig) -> None:
        route_map = _require_map(config, map_name, "inline_match_community")
        for clause in route_map.clauses:
            if clause.action is Action.DENY and clause.matches:
                condition = clause.matches[0]
                if isinstance(condition, MatchCommunityList):
                    community_list = config.get_community_list(condition.name)
                    members = (
                        sorted(community_list.permitted_communities())
                        if community_list is not None
                        else [Community(100, 1)]
                    )
                    clause.matches[0] = MatchCommunityInline(members[0])
                return
        raise FaultTargetError(
            f"inline_match_community: {map_name} on {config.hostname} has "
            f"no deny clause to corrupt"
        )

    return transform


def _make_misplace_neighbor(map_name: str):
    pattern = re.compile(
        rf"^ neighbor (\S+) route-map {re.escape(map_name)} out$",
        re.MULTILINE,
    )

    def transform(text: str) -> str:
        match = pattern.search(text)
        if match is None:
            raise FaultTargetError(
                f"misplaced_neighbor_command: no 'neighbor ... route-map "
                f"{map_name} out' line in this draft"
            )
        line = match.group(0)
        without = pattern.sub("", text, count=1)
        return line.strip() + "\n" + without

    return transform


def _shift_interface_ip(targets: Dict[str, str]):
    def transform(config: RouterConfig) -> None:
        name = targets.get(config.hostname)
        if name is None:
            raise FaultTargetError(
                f"wrong_interface_ip: no target interface designated for "
                f"{config.hostname}"
            )
        interface = config.get_interface(name)
        if interface is None or interface.address is None:
            raise FaultTargetError(
                f"wrong_interface_ip: {config.hostname} has no addressed "
                f"interface {name}"
            )
        # Swap the router-side .1 for the peer-side .2 on the subnet.
        interface.address = Ipv4Address(interface.address.value + 1)

    return transform


def _wrong_local_as(config: RouterConfig) -> None:
    if config.bgp is None:
        raise FaultTargetError(
            f"wrong_local_as: {config.hostname} has no BGP process"
        )
    config.bgp.asn = 1 if config.bgp.asn != 1 else 99


def _wrong_router_id(config: RouterConfig) -> None:
    if config.bgp is None or config.bgp.router_id is None:
        raise FaultTargetError(
            f"wrong_router_id: {config.hostname} has no BGP router-id"
        )
    config.bgp.router_id = Ipv4Address(config.bgp.router_id.value - 1)


def _drop_internal_neighbor(targets: Dict[str, str]):
    def transform(config: RouterConfig) -> None:
        ip = targets.get(config.hostname)
        if ip is None:
            raise FaultTargetError(
                f"missing_neighbor: {config.hostname} has no internal BGP "
                f"neighbor to drop"
            )
        if config.bgp is None or config.bgp.get_neighbor(ip) is None:
            raise FaultTargetError(
                f"missing_neighbor: {config.hostname} does not declare "
                f"neighbor {ip}"
            )
        config.bgp.remove_neighbor(ip)

    return transform


def _drop_link_network(targets: Dict[str, Prefix]):
    def transform(config: RouterConfig) -> None:
        target = targets.get(config.hostname)
        if target is None:
            raise FaultTargetError(
                f"missing_network: {config.hostname} announces no link "
                f"subnet to drop"
            )
        if config.bgp is None or target not in config.bgp.networks:
            raise FaultTargetError(
                f"missing_network: {config.hostname} does not announce "
                f"{target}"
            )
        config.bgp.networks = [
            prefix for prefix in config.bgp.networks if prefix != target
        ]

    return transform


def _make_extra_network(router_count: int):
    def transform(config: RouterConfig) -> None:
        if config.bgp is None:
            raise FaultTargetError(
                f"extra_network: {config.hostname} has no BGP process"
            )
        config.bgp.announce(Prefix.parse(f"{router_count}.0.0.0/24"))

    return transform


def _make_extra_neighbor(router_count: int):
    def transform(config: RouterConfig) -> None:
        if config.bgp is None:
            raise FaultTargetError(
                f"extra_neighbor: {config.hostname} has no BGP process"
            )
        config.bgp.add_neighbor(
            BgpNeighbor(
                ip=Ipv4Address.parse(f"{router_count}.0.0.2"),
                remote_as=router_count,
            )
        )

    return transform


def _merge_deny_clauses(map_name: str):
    """Collapse the per-community deny stanzas into one AND stanza —
    §4.2's exact mistake, quoted route-map and all."""

    def transform(config: RouterConfig) -> None:
        route_map = _require_map(config, map_name, "and_or_semantics")
        deny_matches = []
        permit_clauses = []
        for clause in route_map.clauses:
            if clause.action is Action.DENY:
                deny_matches.extend(clause.matches)
            else:
                permit_clauses.append(clause)
        if not deny_matches:
            raise FaultTargetError(
                f"and_or_semantics: {map_name} on {config.hostname} has no "
                f"deny stanzas to merge"
            )
        merged = RouteMapClause(seq=10, action=Action.DENY, matches=deny_matches)
        for index, clause in enumerate(permit_clauses):
            clause.seq = 20 + 10 * index
        route_map.clauses = [merged] + permit_clauses

    return transform


def _drop_first_deny(map_name: str):
    def transform(config: RouterConfig) -> None:
        route_map = _require_map(config, map_name, "egress_permits_tagged")
        for clause in list(route_map.clauses):
            if clause.action is Action.DENY:
                route_map.clauses.remove(clause)
                return
        raise FaultTargetError(
            f"egress_permits_tagged: {map_name} on {config.hostname} has "
            f"no deny clause to drop"
        )

    return transform


def _drop_ingress_sets(map_name: str):
    def transform(config: RouterConfig) -> None:
        route_map = _require_map(config, map_name, "missing_ingress_tag")
        if not any(clause.sets for clause in route_map.clauses):
            raise FaultTargetError(
                f"missing_ingress_tag: {map_name} on {config.hostname} "
                f"sets nothing to drop"
            )
        for clause in route_map.clauses:
            clause.sets = []

    return transform


def _drop_home_tag(map_name: str, community: Community):
    """Remove the shared community from one home's ingress tagging.

    Addressed like every other fault: injected into a draft whose
    router lacks the slot's map — or whose map never adds the shared
    tag — it raises :class:`FaultTargetError` instead of no-opping.
    """

    def transform(config: RouterConfig) -> None:
        route_map = _require_map(config, map_name, MULTIHOME_FAULT_KEY)
        dropped = False
        for clause in route_map.clauses:
            rewritten = []
            for action in clause.sets:
                if (
                    isinstance(action, SetCommunity)
                    and community in action.communities
                ):
                    dropped = True
                    remaining = tuple(
                        item
                        for item in action.communities
                        if item != community
                    )
                    if remaining:
                        rewritten.append(
                            SetCommunity(remaining, additive=action.additive)
                        )
                else:
                    rewritten.append(action)
            clause.sets = rewritten
        if not dropped:
            raise FaultTargetError(
                f"{MULTIHOME_FAULT_KEY}: {map_name} on {config.hostname} "
                f"never adds the shared community {community}"
            )

    return transform


def _make_non_additive(map_name: str):
    def transform(config: RouterConfig) -> None:
        route_map = _require_map(config, map_name, "non_additive_set_community")
        if not any(
            isinstance(action, SetCommunity)
            for clause in route_map.clauses
            for action in clause.sets
        ):
            raise FaultTargetError(
                f"non_additive_set_community: {map_name} on "
                f"{config.hostname} sets no community"
            )
        for clause in route_map.clauses:
            clause.sets = [
                SetCommunity(action.communities, additive=False)
                if isinstance(action, SetCommunity)
                else action
                for action in clause.sets
            ]

    return transform
