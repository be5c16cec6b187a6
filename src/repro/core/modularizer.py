"""The Modularizer (§2, Figure 3).

"The Modularizer outputs a sequence of Natural Language Prompts that
describes the topology to GPT-4 ... The Modularizer can also take a
general specification of local policies (e.g. edge routers add a
specific community on ingress) and output a specific local specification
for each router for the semantic verifier."

Concretely: per-router task prompts for the synthesis use case, plus the
per-router slice of the no-transit local invariants.
"""

from __future__ import annotations

from typing import List, Optional

from ..topology.context import topology_context
from ..topology.generator import ingress_community
from ..topology.model import Topology

__all__ = ["Modularizer"]

_GLOBAL_POLICY = (
    "The goal is a no-transit policy: no two ISPs should be able to reach "
    "each other through this network, but all ISPs must be able to reach "
    "the CUSTOMER and vice versa."
)


class Modularizer:
    """Decomposes the network-wide task into per-router prompts/specs.

    It slices the topology's context
    (:func:`~repro.topology.context.topology_context`), where the role
    assignment, the hub flag and the no-transit invariants are derived
    once per topology per process.  The context also holds the
    topology's one Modularizer and the prompts it rendered, which the
    synthesis loop reads.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._context = topology_context(topology)

    # -- prompts ------------------------------------------------------------

    def router_task_prompt(self, router_name: str) -> str:
        """The per-router prompt: role sentence + local topology + local
        policy (for the hub)."""
        router = self._topology.router(router_name)
        parts: List[str] = [
            _GLOBAL_POLICY,
            f"Generate the Cisco configuration file for router "
            f"{router_name} only.",
            self._router_context(router_name),
        ]
        policy = self._local_policy_text(router_name)
        if policy:
            parts.append(policy)
        networks = ", ".join(str(prefix) for prefix in router.networks)
        parts.append(
            f"{router_name} uses AS number {router.asn}, router-id "
            f"{router.router_id}, and must announce the networks {networks}."
        )
        return "\n".join(parts)

    def _router_context(self, router_name: str) -> str:
        router = self._topology.router(router_name)
        sentences = []
        for spec in router.interfaces:
            sentences.append(
                f"Interface {spec.name} has address {spec.address} on "
                f"subnet {spec.prefix}."
            )
        for neighbor in router.neighbors:
            label = f" ({neighbor.peer_name})" if neighbor.peer_name else ""
            sentences.append(
                f"Declare a BGP neighbor {neighbor.ip}{label} in AS "
                f"{neighbor.asn}."
            )
        return " ".join(sentences)

    def _local_policy_text(self, router_name: str) -> str:
        if self._context.hub_star:
            if router_name != "R1":
                return ""
            clauses = []
            for name in self._topology.router_names():
                if name == "R1":
                    continue
                index = int(name[1:])
                tag = ingress_community(index)
                clauses.append(
                    f"add community {tag} (additively) to every route received "
                    f"from {name}"
                )
            filters = (
                "at the egress to each ISP router, deny any route that carries "
                "the community added for a different ISP router, and permit "
                "everything else"
            )
            return (
                "Local policy for R1: " + "; ".join(clauses) + "; and "
                + filters + "."
            )
        roles = self._context.roles
        mine = roles.attachments_of(router_name)
        if not mine:
            return ""
        clauses = []
        for attachment in mine:
            tag = ingress_community(attachment.index)
            interface = self._topology.router(router_name).interface(
                attachment.peer.interface
            )
            subnet = (
                interface.prefix if interface is not None else "its subnet"
            )
            others = ", ".join(
                str(ingress_community(index))
                for index in roles.indices()
                if index != attachment.index
            )
            clauses.append(
                f"add community {tag} (additively) to every route received "
                f"from {attachment.role_name}; when exporting to the "
                f"internal neighbors, add community {tag} (additively) to "
                f"routes of {attachment.role_name}'s subnet {subnet}, "
                f"matched via a prefix-list; at the egress to "
                f"{attachment.role_name}, deny any route that carries one "
                f"of the other ISP communities ({others}) and permit "
                f"everything else"
            )
        return f"Local policy for {router_name}: " + "; ".join(clauses) + "."

    # -- local specifications ---------------------------------------------------

    def local_invariants(self, router_name: Optional[str] = None) -> List[object]:
        """The per-router slice of the global spec for the semantic
        verifier (on the hub R1 for the star; on each ISP-attached
        border router for the other families)."""
        if router_name is None:
            return list(self._context.invariants)
        return list(self._context.invariants_of.get(router_name, ()))
