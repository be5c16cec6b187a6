"""Topology: JSON network model, the star generator (Figure 4) plus the
chain/ring/mesh/dumbbell families, seeded random/Waxman families with
first-class role placement, and the paper's custom topology verifier
(Table 3)."""

from .families import (
    FAMILIES,
    SEEDED_FAMILIES,
    GeneratedNetwork,
    generate_chain_network,
    generate_dumbbell_network,
    generate_mesh_network,
    generate_network,
    generate_random_network,
    generate_ring_network,
    generate_waxman_network,
    is_hub_star,
)
from .roles import RoleAssignment, RoleAttachment, RoleKind, RoleSpec
from .generator import StarNetwork, generate_star_network, ingress_community
from .model import (
    ExternalPeer,
    InterfaceSpec,
    Link,
    NeighborSpec,
    RouterSpec,
    Topology,
)
from .verifier import (
    TopologyIssue,
    TopologyIssueKind,
    verify_topology,
)

__all__ = [
    "ExternalPeer",
    "FAMILIES",
    "GeneratedNetwork",
    "InterfaceSpec",
    "Link",
    "NeighborSpec",
    "RoleAssignment",
    "RoleAttachment",
    "RoleKind",
    "RoleSpec",
    "RouterSpec",
    "SEEDED_FAMILIES",
    "StarNetwork",
    "Topology",
    "TopologyIssue",
    "TopologyIssueKind",
    "generate_chain_network",
    "generate_dumbbell_network",
    "generate_mesh_network",
    "generate_network",
    "generate_random_network",
    "generate_ring_network",
    "generate_star_network",
    "generate_waxman_network",
    "ingress_community",
    "is_hub_star",
    "verify_topology",
]
