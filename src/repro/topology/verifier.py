"""The paper's custom topology verifier (§4, Table 3).

"We use an automated 'topology verifier' that compares the config
against the previously specified JSON dictionary and outputs
inconsistencies."  The verifier checks that a router's parsed config
sets up all interfaces, declares all BGP neighbors, and announces all
networks exactly as the topology dictates; its messages reproduce the
seven Table 3 phrasings verbatim (modulo the spliced fields).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from ..netmodel.device import RouterConfig
from .model import RouterSpec

__all__ = ["TopologyIssue", "TopologyIssueKind", "verify_topology"]


class TopologyIssueKind(enum.Enum):
    """The inconsistency classes enumerated in Table 3."""

    INTERFACE_ADDRESS_MISMATCH = "interface_address_mismatch"
    MISSING_INTERFACE = "missing_interface"
    LOCAL_AS_MISMATCH = "local_as_mismatch"
    ROUTER_ID_MISMATCH = "router_id_mismatch"
    MISSING_NEIGHBOR = "missing_neighbor"
    MISSING_NETWORK = "missing_network"
    INCORRECT_NETWORK = "incorrect_network"
    INCORRECT_NEIGHBOR = "incorrect_neighbor"
    MISSING_BGP = "missing_bgp"


@dataclass(frozen=True)
class TopologyIssue:
    """One inconsistency between a config and the topology JSON."""

    kind: TopologyIssueKind
    router: str
    message: str


def verify_topology(config: RouterConfig, spec: RouterSpec) -> List[TopologyIssue]:
    """Check one router's config against its topology specification."""
    issues: List[TopologyIssue] = []
    issues.extend(_check_interfaces(config, spec))
    issues.extend(_check_bgp(config, spec))
    return issues


def _check_interfaces(config: RouterConfig, spec: RouterSpec) -> List[TopologyIssue]:
    issues = []
    for interface_spec in spec.interfaces:
        interface = config.get_interface(interface_spec.name)
        if interface is None or interface.address is None:
            issues.append(
                TopologyIssue(
                    kind=TopologyIssueKind.MISSING_INTERFACE,
                    router=spec.name,
                    message=(
                        f"Interface {interface_spec.name} with ip address "
                        f"{interface_spec.cidr()} is not configured"
                    ),
                )
            )
            continue
        if interface.address != interface_spec.address:
            issues.append(
                TopologyIssue(
                    kind=TopologyIssueKind.INTERFACE_ADDRESS_MISMATCH,
                    router=spec.name,
                    message=(
                        f"Interface {interface_spec.name} ip address does not "
                        f"match with given config. Expected "
                        f"{interface_spec.address}, found {interface.address}"
                    ),
                )
            )
    return issues


def _check_bgp(config: RouterConfig, spec: RouterSpec) -> List[TopologyIssue]:
    issues: List[TopologyIssue] = []
    bgp = config.bgp
    if bgp is None:
        issues.append(
            TopologyIssue(
                kind=TopologyIssueKind.MISSING_BGP,
                router=spec.name,
                message=f"Router {spec.name} has no BGP configuration",
            )
        )
        return issues
    if bgp.asn != spec.asn:
        issues.append(
            TopologyIssue(
                kind=TopologyIssueKind.LOCAL_AS_MISMATCH,
                router=spec.name,
                message=(
                    f"Local AS number does not match. Expected {spec.asn}, "
                    f"found {bgp.asn}"
                ),
            )
        )
    if bgp.router_id is not None and bgp.router_id != spec.router_id:
        issues.append(
            TopologyIssue(
                kind=TopologyIssueKind.ROUTER_ID_MISMATCH,
                router=spec.name,
                message=(
                    f"Router ID does not match with given config. Expected "
                    f"{spec.router_id}, found {bgp.router_id}"
                ),
            )
        )
    declared_neighbors = {
        str(neighbor.ip): neighbor for neighbor in bgp.neighbors.values()
    }
    for neighbor_spec in spec.neighbors:
        declared = declared_neighbors.get(str(neighbor_spec.ip))
        if declared is None or declared.remote_as != neighbor_spec.asn:
            issues.append(
                TopologyIssue(
                    kind=TopologyIssueKind.MISSING_NEIGHBOR,
                    router=spec.name,
                    message=(
                        f"Neighbor with IP address {neighbor_spec.ip} and AS "
                        f"{neighbor_spec.asn} not declared"
                    ),
                )
            )
    expected_pairs = {(str(item.ip), item.asn) for item in spec.neighbors}
    for ip, declared in sorted(declared_neighbors.items()):
        if (ip, declared.remote_as) not in expected_pairs:
            issues.append(
                TopologyIssue(
                    kind=TopologyIssueKind.INCORRECT_NEIGHBOR,
                    router=spec.name,
                    message=(
                        f"Incorrect neighbor declaration. No neighbor with IP "
                        f"address {ip} AS {declared.remote_as} found"
                    ),
                )
            )
    declared_networks = set(bgp.networks)
    for network in spec.networks:
        if network not in declared_networks:
            issues.append(
                TopologyIssue(
                    kind=TopologyIssueKind.MISSING_NETWORK,
                    router=spec.name,
                    message=f"Network {network} not declared",
                )
            )
    connected = spec.connected_prefixes()
    for network in sorted(declared_networks):
        if not any(prefix.overlaps(network) for prefix in connected):
            issues.append(
                TopologyIssue(
                    kind=TopologyIssueKind.INCORRECT_NETWORK,
                    router=spec.name,
                    message=(
                        f"Incorrect network declaration. {network} is not "
                        f"directly connected to {spec.name}"
                    ),
                )
            )
    return issues
