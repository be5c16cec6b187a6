"""Reference no-transit configurations for any topology family.

This is the ground truth for the local-synthesis use case (§4): for each
router of the star, the config a competent operator would write.  The
hub (R1) carries all the policy — per the paper, "R1 should add a
specific community at the ingress to each ISP and then drop routes based
on those communities at the egress to each ISP" — while the spokes just
set up interfaces, neighbors, and networks.

Community-list numbering follows §4.2's example: list ``1`` permits
``100:1`` (R2's tag), list ``2`` permits ``101:1`` (R3's), and so on —
list ``j-1`` holds ``R<j>``'s ingress tag.  The egress filter to ``Ri``
uses one ``deny`` stanza per *other* ISP's list (separate stanzas, i.e.
OR semantics — the correct form GPT-4 needed a human prompt to reach).

For the non-star families (chain, ring, mesh, dumbbell) there is no hub
through which all transit flows, so the same mechanism moves to the
*border*: each ISP-attached router ``Ri``

* tags routes arriving from its ISP with ``Ri``'s community
  (``ADD_COMM_Ri`` on the external import — the real-world ingress),
* tags its own ISP subnet with the same community when advertising it
  into the core (``EXPORT_CORE_Ri``, matched via a prefix-list, since
  the simulation originates the ISP subnet locally), and
* drops routes carrying any *other* ISP's community at the egress back
  to its ISP (``FILTER_COMM_OUT_Ri``, same OR-stanza shape as the hub).

Communities are never stripped in between (all sets are additive), so
the local obligations compose into the global no-transit property on
any internal graph.  :func:`build_reference_configs` dispatches on the hub flag of the
topology's :func:`~repro.topology.context.topology_context`; the border
path follows its :class:`~repro.topology.roles.RoleAssignment`, so map
names key on the attachment's *community slot* (both homes of a
multi-homed ISP share one tag) and a router may host several
attachments, each with its own tag/filter pair, under one multi-clause
core-export map.
"""

from __future__ import annotations

from typing import Dict, List

from ..netmodel.bgp import BgpNeighbor
from ..netmodel.communities import CommunityList, CommunityListEntry
from ..netmodel.device import RouterConfig, Vendor
from ..netmodel.interfaces import Interface
from ..netmodel.ip import PrefixRange
from ..netmodel.prefixlist import PrefixList
from ..netmodel.routing_policy import (
    Action,
    MatchCommunityList,
    MatchPrefixList,
    RouteMap,
    RouteMapClause,
    SetCommunity,
)
from .context import topology_context
from .generator import ingress_community
from .model import RouterSpec, Topology
from .roles import RoleAssignment, RoleAttachment

__all__ = [
    "build_border_config",
    "build_reference_configs",
    "build_spoke_config",
    "build_hub_config",
    "community_list_number",
    "core_export_map_name",
    "egress_map_name",
    "ingress_map_name",
    "isp_prefix_list_name",
]


def community_list_number(router_index: int) -> int:
    """The community-list number holding R<router_index>'s ingress tag."""
    if router_index < 2:
        raise ValueError("only spoke routers have ingress tags")
    return router_index - 1


def ingress_map_name(router_index: int) -> str:
    return f"ADD_COMM_R{router_index}"


def egress_map_name(router_index: int) -> str:
    return f"FILTER_COMM_OUT_R{router_index}"


def core_export_map_name(router_index: int) -> str:
    return f"EXPORT_CORE_R{router_index}"


def isp_prefix_list_name(router_index: int) -> str:
    return f"PL_ISP_R{router_index}"


def build_reference_configs(topology: Topology) -> Dict[str, RouterConfig]:
    """Reference configs for every router of any topology family.

    Hub-shaped (star) topologies keep the paper's hub-concentrated
    policy; all other families get border-placed policy.
    """
    context = topology_context(topology)
    configs: Dict[str, RouterConfig] = {}
    if context.hub_star:
        spoke_indices = _spoke_indices(topology)
        for name in topology.router_names():
            spec = topology.router(name)
            if name == "R1":
                configs[name] = build_hub_config(spec, spoke_indices)
            else:
                configs[name] = build_spoke_config(spec)
        return configs
    roles = context.roles
    for name in topology.router_names():
        spec = topology.router(name)
        configs[name] = build_border_config(
            spec, roles.attachments_of(name), roles
        )
    return configs


def build_spoke_config(spec: RouterSpec) -> RouterConfig:
    """A plain spoke: interfaces, BGP neighbors, announced networks."""
    config = RouterConfig(hostname=spec.name, vendor=Vendor.CISCO)
    _apply_interfaces(config, spec)
    bgp = config.ensure_bgp(spec.asn)
    bgp.router_id = spec.router_id
    for network in spec.networks:
        bgp.announce(network)
    for neighbor_spec in spec.neighbors:
        bgp.add_neighbor(
            BgpNeighbor(
                ip=neighbor_spec.ip,
                remote_as=neighbor_spec.asn,
                send_community=True,
            )
        )
    return config


def build_hub_config(spec: RouterSpec, spoke_indices: List[int]) -> RouterConfig:
    """The hub with the full ingress-tag / egress-filter policy."""
    config = RouterConfig(hostname=spec.name, vendor=Vendor.CISCO)
    _apply_interfaces(config, spec)
    bgp = config.ensure_bgp(spec.asn)
    bgp.router_id = spec.router_id
    for network in spec.networks:
        bgp.announce(network)
    for index in spoke_indices:
        tag = ingress_community(index)
        community_list = CommunityList(str(community_list_number(index)))
        community_list.add(
            CommunityListEntry(action="permit", communities=(tag,))
        )
        config.add_community_list(community_list)
    for index in spoke_indices:
        config.add_route_map(_ingress_map(index))
        config.add_route_map(_egress_map(index, spoke_indices))
    for neighbor_spec in spec.neighbors:
        neighbor = BgpNeighbor(
            ip=neighbor_spec.ip,
            remote_as=neighbor_spec.asn,
            send_community=True,
        )
        if neighbor_spec.peer_name.startswith("R"):
            index = int(neighbor_spec.peer_name[1:])
            neighbor.import_policy = ingress_map_name(index)
            neighbor.export_policy = egress_map_name(index)
        bgp.add_neighbor(neighbor)
    return config


def _ingress_map(index: int) -> RouteMap:
    """``ADD_COMM_Ri``: tag everything arriving from Ri, additively."""
    route_map = RouteMap(ingress_map_name(index))
    clause = RouteMapClause(seq=10, action=Action.PERMIT)
    clause.sets.append(SetCommunity((ingress_community(index),), additive=True))
    route_map.add_clause(clause)
    return route_map


def _egress_map(index: int, spoke_indices: List[int]) -> RouteMap:
    """``FILTER_COMM_OUT_Ri``: drop other ISPs' tags, then permit.

    One deny stanza per community list — separate stanzas give the OR
    semantics the no-transit policy requires (§4.2's AND/OR lesson).
    """
    route_map = RouteMap(egress_map_name(index))
    seq = 10
    for other in spoke_indices:
        if other == index:
            continue
        clause = RouteMapClause(seq=seq, action=Action.DENY)
        clause.matches.append(
            MatchCommunityList(str(community_list_number(other)))
        )
        route_map.add_clause(clause)
        seq += 10
    route_map.add_clause(RouteMapClause(seq=seq, action=Action.PERMIT))
    return route_map


def build_border_config(
    spec: RouterSpec,
    attachments: List[RoleAttachment],
    roles: RoleAssignment,
) -> RouterConfig:
    """One router of a border-policy (role-assigned) topology.

    Routers without a transit-forbidden attachment (customer routers,
    the dumbbell cores, plain transit routers) are spokes; each
    ISP/peer attachment a router hosts carries the full tag/filter
    policy on its own external session plus the prefix-list-scoped
    tagging of that attachment's subnet toward the core.  Map names are
    keyed by the attachment's *community slot* (``ADD_COMM_Rj`` for
    ISP/peer ``j``), so both homes of a multi-homed ISP share one tag —
    which is what makes the no-transit argument per-ISP rather than
    per-border-router.
    """
    config = build_spoke_config(spec)
    if not attachments:
        return config
    all_indices = roles.indices()
    for peer_index in all_indices:
        community_list = CommunityList(str(community_list_number(peer_index)))
        community_list.add(
            CommunityListEntry(
                action="permit", communities=(ingress_community(peer_index),)
            )
        )
        config.add_community_list(community_list)
    assert config.bgp is not None
    for attachment in attachments:
        index = attachment.index
        isp_subnet = spec.interface(attachment.peer.interface)
        assert isp_subnet is not None
        prefix_list = PrefixList(isp_prefix_list_name(index))
        prefix_list.add("permit", PrefixRange.exact(isp_subnet.prefix))
        config.add_prefix_list(prefix_list)
        config.add_route_map(_ingress_map(index))
        config.add_route_map(_egress_map(index, all_indices))
        neighbor = config.bgp.get_neighbor(attachment.peer.peer_ip)
        if neighbor is not None:
            neighbor.import_policy = ingress_map_name(index)
            neighbor.export_policy = egress_map_name(index)
    core_export = _core_export_map(attachments)
    config.add_route_map(core_export)
    external_ips = {attachment.peer.peer_ip for attachment in attachments}
    for neighbor in config.bgp.neighbors.values():
        if neighbor.ip in external_ips:
            continue
        peer = spec.neighbor_with_ip(neighbor.ip)
        if peer is not None and peer.peer_name.startswith("R"):
            neighbor.export_policy = core_export.name
    return config


def _core_export_map(attachments: List[RoleAttachment]) -> RouteMap:
    """``EXPORT_CORE_Rj``: tag each hosted attachment's subnet (matched
    via its prefix-list) when advertising into the core; pass
    everything else untouched.  A router hosting several attachments
    gets one map (named for the first slot) with one tagging clause per
    attachment."""
    route_map = RouteMap(core_export_map_name(attachments[0].index))
    seq = 10
    for attachment in attachments:
        tagging = RouteMapClause(seq=seq, action=Action.PERMIT)
        tagging.matches.append(
            MatchPrefixList(isp_prefix_list_name(attachment.index))
        )
        tagging.sets.append(
            SetCommunity(
                (ingress_community(attachment.index),), additive=True
            )
        )
        route_map.add_clause(tagging)
        seq += 10
    route_map.add_clause(RouteMapClause(seq=seq, action=Action.PERMIT))
    return route_map


def _apply_interfaces(config: RouterConfig, spec: RouterSpec) -> None:
    for interface_spec in spec.interfaces:
        config.add_interface(
            Interface(
                name=interface_spec.name,
                address=interface_spec.address,
                prefix=interface_spec.prefix,
            )
        )


def _spoke_indices(topology: Topology) -> List[int]:
    indices = []
    for name in topology.router_names():
        if name != "R1":
            indices.append(int(name[1:]))
    return indices
