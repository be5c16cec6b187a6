"""One read-only context per topology: what every stage derives from it.

The Modularizer (§2, Figure 3) turns one topology and one global spec
into per-router prompts and local specifications.  Those, and every
other fact the stages read of a topology alone, are derived once per
topology per process by :func:`topology_context`.  ``Topology`` is
mutable, so the memo is keyed on its identity and each entry holds the
topology (its id cannot be reused while the entry lives); a topology is
read-only once a stage has seen it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Tuple

from ..netmodel.ip import Ipv4Address, Prefix
from ..symbolic.memo import MemoCache
from .families import is_hub_star
from .generator import ingress_community
from .model import Topology
from .roles import RoleAssignment, RoleKind

if TYPE_CHECKING:
    from ..core.modularizer import Modularizer

__all__ = ["TopologyContext", "topology_context"]

# As many entries as the ``network`` memo: scenarios of one network
# cell are adjacent in grid order, so reuse is local.
_CONTEXT_MEMO = MemoCache("topology-context", max_entries=16)

NamedPrefix = Tuple[str, Prefix]  # (role name, attachment subnet)


@dataclass(frozen=True, eq=False)
class TopologyContext:
    """The derived facts of one topology; every view is read-only.

    ``prefixes_of`` (per transit-forbidden slot) and
    ``customer_prefixes`` are the role prefixes, ``wanted`` their union:
    all the border verdict reads.  The map names are those on each
    router's first transit-forbidden attachment.  ``key`` is
    structural, so equal topologies share one warm simulation state.
    """

    topology: Topology
    hub_star: bool
    roles: RoleAssignment
    invariants: Tuple[object, ...]
    invariants_of: Mapping[str, Tuple[object, ...]]
    prefixes_of: Mapping[int, Tuple[NamedPrefix, ...]]
    customer_prefixes: Tuple[NamedPrefix, ...]
    wanted: FrozenSet[Prefix]
    ingress_maps: Mapping[str, str]
    egress_maps: Mapping[str, str]
    key: Tuple

    @cached_property
    def modularizer(self) -> "Modularizer":
        from ..core.modularizer import Modularizer

        return Modularizer(self.topology)

    @cached_property
    def prompts(self) -> Mapping[str, str]:
        """Router name -> its task prompt."""
        return MappingProxyType(
            {
                name: self.modularizer.router_task_prompt(name)
                for name in self.topology.router_names()
            }
        )


def topology_context(topology: Topology) -> TopologyContext:
    """The topology's context, derived on its first use in the process
    (on every use with memoization off)."""
    hit, context = _CONTEXT_MEMO.lookup(id(topology))
    if not hit:
        context = _derive(topology)
        _CONTEXT_MEMO.store(id(topology), context)
    return context


def _derive(topology: Topology) -> TopologyContext:
    from ..lightyear.invariants import EgressFilterInvariant, IngressTagInvariant
    from .reference import egress_map_name, ingress_map_name

    hub_star = is_hub_star(topology)
    roles = RoleAssignment.from_topology(topology)
    # The sessions no-transit guards, as (router, neighbor, slot): the
    # hub's session toward each spoke Ri (slot i) on a star, else each
    # transit-forbidden attachment's own session.  Each is tagged with
    # its slot's community and filters every other slot's.
    if hub_star:
        toward: Dict[str, Ipv4Address] = {}
        for spec in topology.router("R1").neighbors:
            toward.setdefault(spec.peer_name, spec.ip)
        sessions = [
            ("R1", toward[name], index)
            for index, name in enumerate(topology.router_names(), start=1)
            if name != "R1" and name in toward
        ]
    else:
        sessions = [
            (attachment.router, attachment.peer.peer_ip, attachment.index)
            for attachment in roles.transit_forbidden()
        ]
    tags = {slot: ingress_community(slot) for _, _, slot in sessions}
    invariants: List[object] = []
    for router, neighbor_ip, slot in sessions:
        invariants.append(IngressTagInvariant(router, neighbor_ip, tags[slot]))
        forbidden = frozenset(tag for other, tag in tags.items() if other != slot)
        if forbidden:
            invariants.append(EgressFilterInvariant(router, neighbor_ip, forbidden))
    invariants_of: Dict[str, List[object]] = {}
    for invariant in invariants:
        invariants_of.setdefault(invariant.router, []).append(invariant)
    prefixes_of: Dict[int, List[NamedPrefix]] = {}
    customer_prefixes: List[NamedPrefix] = []
    for attachment in roles.customers + tuple(roles.transit_forbidden()):
        interface = topology.router(attachment.router).interface(
            attachment.peer.interface
        )
        if interface is None:
            continue
        named = (attachment.role_name, interface.prefix)
        if attachment.kind is RoleKind.CUSTOMER:
            customer_prefixes.append(named)
        else:
            prefixes_of.setdefault(attachment.index, []).append(named)
    first_slot: Dict[str, int] = {}
    for attachment in roles.transit_forbidden():
        first_slot.setdefault(attachment.router, attachment.index)
    return TopologyContext(
        topology=topology,
        hub_star=hub_star,
        roles=roles,
        invariants=tuple(invariants),
        invariants_of=MappingProxyType(
            {router: tuple(items) for router, items in invariants_of.items()}
        ),
        prefixes_of=MappingProxyType(
            {index: tuple(items) for index, items in prefixes_of.items()}
        ),
        customer_prefixes=tuple(customer_prefixes),
        wanted=frozenset(
            prefix
            for named in (customer_prefixes, *prefixes_of.values())
            for _, prefix in named
        ),
        ingress_maps=MappingProxyType(
            {router: ingress_map_name(slot) for router, slot in first_slot.items()}
        ),
        egress_maps=MappingProxyType(
            {router: egress_map_name(slot) for router, slot in first_slot.items()}
        ),
        key=(
            topology.name,
            tuple(topology.router_names()),
            tuple(
                (link.router_a, link.interface_a, link.router_b,
                 link.interface_b, str(link.subnet))
                for link in topology.links
            ),
            tuple(
                (peer.router, peer.interface, peer.peer_name,
                 str(peer.peer_ip), peer.peer_asn)
                for peer in topology.externals
            ),
        ),
    )
