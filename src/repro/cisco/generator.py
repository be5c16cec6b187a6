"""Cisco IOS configuration generator (vendor-neutral IR → text).

The generator produces the *reference* (correct) rendering of a
configuration.  The simulated GPT-4 builds its drafts by taking this
output and injecting faults; the VPP loop then repairs the draft back
toward something this generator could have emitted.
"""

from __future__ import annotations

from typing import List

from ..netmodel.device import RouterConfig
from ..netmodel.routing_policy import (
    MatchAcl,
    MatchAsPathList,
    MatchCommunityInline,
    MatchCommunityList,
    MatchPrefixList,
    RouteMap,
    RouteMapClause,
    SetAsPathPrepend,
    SetCommunity,
    SetLocalPref,
    SetMed,
    SetNextHop,
)

__all__ = ["generate_cisco"]


def generate_cisco(config: RouterConfig) -> str:
    """Render a :class:`RouterConfig` as an IOS configuration file."""
    sections: List[str] = []
    if config.hostname:
        sections.append(f"hostname {config.hostname}\n")
    for interface in config.sorted_interfaces():
        sections.append(_render_interface(interface))
    for name in sorted(config.access_lists):
        sections.append(_render_access_list(config, name))
    for name in sorted(config.prefix_lists):
        sections.append(_render_prefix_list(config, name))
    for name in sorted(config.community_lists):
        sections.append(_render_community_list(config, name))
    for name in sorted(config.as_path_lists):
        sections.append(_render_as_path_list(config, name))
    for name in sorted(config.route_maps):
        sections.append(_render_route_map(config.route_maps[name]))
    if config.ospf is not None:
        sections.append(_render_ospf(config))
    if config.bgp is not None:
        sections.append(_render_bgp(config))
    return "!\n".join(section for section in sections if section) + "\n"


def _render_interface(interface) -> str:
    lines = [f"interface {interface.name}"]
    if interface.description:
        lines.append(f" description {interface.description}")
    if interface.address is not None and interface.prefix is not None:
        lines.append(
            f" ip address {interface.address} {interface.prefix.mask_string()}"
        )
    if interface.ospf_cost is not None:
        lines.append(f" ip ospf cost {interface.ospf_cost}")
    if interface.shutdown:
        lines.append(" shutdown")
    return "\n".join(lines) + "\n"


def _render_access_list(config: RouterConfig, name: str) -> str:
    access_list = config.access_lists[name]
    if name.isdigit():
        lines = [
            f"access-list {name} {entry.render_cisco()}"
            for entry in access_list.entries
        ]
    else:
        lines = [f"ip access-list standard {name}"]
        lines.extend(f" {entry.render_cisco()}" for entry in access_list.entries)
    return "\n".join(lines) + "\n"


def _render_prefix_list(config: RouterConfig, name: str) -> str:
    prefix_list = config.prefix_lists[name]
    lines = [entry.render_cisco(name) for entry in prefix_list.entries]
    return "\n".join(lines) + "\n"


def _render_community_list(config: RouterConfig, name: str) -> str:
    community_list = config.community_lists[name]
    lines = []
    for entry in community_list.entries:
        if entry.regex is not None:
            lines.append(
                f"ip community-list expanded {name} {entry.action} {entry.regex}"
            )
        else:
            values = " ".join(str(item) for item in entry.communities)
            lines.append(f"ip community-list {name} {entry.action} {values}")
    return "\n".join(lines) + "\n"


def _render_as_path_list(config: RouterConfig, name: str) -> str:
    as_path_list = config.as_path_lists[name]
    lines = [
        f"ip as-path access-list {name} {entry.action} {entry.regex}"
        for entry in as_path_list.entries
    ]
    return "\n".join(lines) + "\n"


def _render_route_map(route_map: RouteMap) -> str:
    lines: List[str] = []
    for clause in route_map.clauses:
        lines.append(f"route-map {route_map.name} {clause.action} {clause.seq}")
        lines.extend(_render_clause_body(clause))
    return "\n".join(lines) + "\n"


def _render_clause_body(clause: RouteMapClause) -> List[str]:
    lines: List[str] = []
    for condition in clause.matches:
        if isinstance(condition, MatchPrefixList):
            lines.append(f" match ip address prefix-list {condition.name}")
        elif isinstance(condition, MatchAcl):
            lines.append(f" match ip address {condition.name}")
        elif isinstance(condition, MatchCommunityList):
            lines.append(f" match community {condition.name}")
        elif isinstance(condition, MatchCommunityInline):
            # Invalid IOS, preserved verbatim so a draft round-trips and
            # the syntax verifier sees exactly what the "LLM" wrote.
            lines.append(f" match community {condition.community}")
        elif isinstance(condition, MatchAsPathList):
            lines.append(f" match as-path {condition.name}")
        else:  # Junos-only route-filter and protocol matches
            lines.append(f" ! unsupported match: {condition.describe()}")
    for set_action in clause.sets:
        if isinstance(set_action, SetCommunity):
            values = " ".join(str(item) for item in set_action.communities)
            suffix = " additive" if set_action.additive else ""
            lines.append(f" set community {values}{suffix}")
        elif isinstance(set_action, SetMed):
            lines.append(f" set metric {set_action.med}")
        elif isinstance(set_action, SetLocalPref):
            lines.append(f" set local-preference {set_action.local_pref}")
        elif isinstance(set_action, SetNextHop):
            lines.append(f" set ip next-hop {set_action.next_hop}")
        elif isinstance(set_action, SetAsPathPrepend):
            rendered = " ".join([str(set_action.asn)] * set_action.count)
            lines.append(f" set as-path prepend {rendered}")
    return lines


def _render_ospf(config: RouterConfig) -> str:
    ospf = config.ospf
    assert ospf is not None
    lines = [f"router ospf {ospf.process_id}"]
    if ospf.router_id is not None:
        lines.append(f" router-id {ospf.router_id}")
    for statement in ospf.networks:
        lines.append(
            f" network {statement.prefix.address} "
            f"{statement.prefix.wildcard_string()} area {statement.area}"
        )
    for name in ospf.passive_interfaces:
        lines.append(f" passive-interface {name}")
    return "\n".join(lines) + "\n"


def _render_bgp(config: RouterConfig) -> str:
    bgp = config.bgp
    assert bgp is not None
    lines = [f"router bgp {bgp.asn}"]
    if bgp.router_id is not None:
        lines.append(f" bgp router-id {bgp.router_id}")
    for prefix in bgp.networks:
        lines.append(f" network {prefix.address} mask {prefix.mask_string()}")
    for neighbor in bgp.sorted_neighbors():
        lines.append(f" neighbor {neighbor.ip} remote-as {neighbor.remote_as}")
        if neighbor.description:
            lines.append(f" neighbor {neighbor.ip} description {neighbor.description}")
        if neighbor.send_community:
            lines.append(f" neighbor {neighbor.ip} send-community")
        if neighbor.next_hop_self:
            lines.append(f" neighbor {neighbor.ip} next-hop-self")
        if neighbor.import_policy:
            lines.append(
                f" neighbor {neighbor.ip} route-map {neighbor.import_policy} in"
            )
        if neighbor.export_policy:
            lines.append(
                f" neighbor {neighbor.ip} route-map {neighbor.export_policy} out"
            )
    for redistribution in bgp.redistributions:
        line = f" redistribute {redistribution.protocol.value}"
        if redistribution.route_map:
            line += f" route-map {redistribution.route_map}"
        lines.append(line)
    return "\n".join(lines) + "\n"
