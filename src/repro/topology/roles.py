"""Network roles as first-class objects.

The bundled families hard-wire one role layout: a single CUSTOMER at R1
and one single-homed ISP per border router.  The paper's no-transit
property, however, is about *roles*, not shapes — what must hold is
that no transit-forbidden attachment can reach another through the
customer network, wherever those attachments land on the graph.  This
module makes that explicit:

* :class:`RoleKind` — the vocabulary: ``CUSTOMER`` (a customer network
  that every provider must reach), ``PROVIDER`` (a transit-forbidden
  ISP that must still reach every customer), and ``PEER`` (a
  transit-forbidden attachment with no reachability obligation —
  a settlement-free peer that must never be transited either way);
* :class:`RoleSpec` — how many customers / ISPs / peers a generated
  network should carry and how many *homes* (border attachments) each
  ISP gets.  ``homes > 1`` yields multi-homed ISPs: the same external
  AS attached at several border routers, sharing one community slot;
* :class:`RoleAssignment` — the concrete placement, recovered from any
  :class:`~repro.topology.model.Topology` by grouping its external
  peers.  Reference configs, local invariants, the composition
  argument, the global check, the Modularizer, and fault addressing
  all dispatch on this object, so the legacy families are just the
  degenerate one-customer single-homed case.

Naming conventions (compatible with the existing families):

* the first customer is ``CUSTOMER`` (AS 65001), further customers are
  ``CUSTOMER_c`` (AS ``65000 + c``) on ``100.(c-1).0.0/24``;
* ISP *j* (j ≥ 2, sharing the spoke community slots) is ``ISP_j``
  (AS ``1000 + j``); its *h*-th home uses ``200.j.(h-1).0/24`` — so a
  single-homed ISP keeps the classic ``200.j.0.0/24``;
* transit-forbidden peers are ``PEER_j`` and draw from the same index
  space (and thus the same community slots) as the ISPs.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .model import ExternalPeer, Topology

__all__ = [
    "RoleAssignment",
    "RoleAttachment",
    "RoleKind",
    "RoleSpec",
    "attachment_isp_index",
    "customer_ordinal",
]

CUSTOMER_BASE_ASN = 65000  # customer c gets AS 65000 + c (c=1 -> 65001)
ISP_BASE_ASN = 1000  # ISP/peer j gets AS 1000 + j


class RoleKind(enum.Enum):
    """What an external attachment *is* to the customer network."""

    CUSTOMER = "customer"
    PROVIDER = "provider"  # transit-forbidden ISP with reachability needs
    PEER = "peer"  # transit-forbidden, no reachability obligation


_SPEC_PATTERN = re.compile(
    r"^c(?P<customers>\d+)i(?P<isps>\d+)h(?P<homes>\d+)(p(?P<peers>\d+))?$"
)


@dataclass(frozen=True)
class RoleSpec:
    """A role layout request for the random generators.

    ``key()`` round-trips through :meth:`parse` (``c2i3h2p1`` = two
    customers, three ISPs with two homes each, one peer) so specs can
    travel through scenario keys, journals, and the CLI as strings.
    """

    customers: int = 1
    isps: int = 3
    homes: int = 1
    peers: int = 0

    def __post_init__(self) -> None:
        if self.customers < 1:
            raise ValueError("a role spec needs at least one customer")
        if self.isps < 1:
            raise ValueError("a role spec needs at least one ISP")
        if self.homes < 1:
            raise ValueError("every ISP needs at least one home")
        if self.peers < 0:
            raise ValueError("peers must be non-negative")

    @property
    def attachments(self) -> int:
        """Total external attachments the spec places."""
        return self.customers + self.isps * self.homes + self.peers

    def key(self) -> str:
        text = f"c{self.customers}i{self.isps}h{self.homes}"
        if self.peers:
            text += f"p{self.peers}"
        return text

    @classmethod
    def parse(cls, text: str) -> "RoleSpec":
        match = _SPEC_PATTERN.match(text.strip())
        if match is None:
            raise ValueError(
                f"invalid role spec {text!r} (expected e.g. 'c2i3h2' or "
                f"'c1i2h1p1': customers, ISPs, homes per ISP, peers)"
            )
        return cls(
            customers=int(match.group("customers")),
            isps=int(match.group("isps")),
            homes=int(match.group("homes")),
            peers=int(match.group("peers") or 0),
        )

    @classmethod
    def coerce(cls, value: "RoleSpec | str | None") -> "Optional[RoleSpec]":
        """None / 'default' -> None; strings parse; specs pass through."""
        if value is None or isinstance(value, cls):
            return value
        text = str(value).strip()
        if not text or text == "default":
            return None
        return cls.parse(text)

    @classmethod
    def default_for(cls, size: int) -> "RoleSpec":
        """The family default: one customer, up to three single-homed
        ISPs (every router carries at most one attachment)."""
        return cls(customers=1, isps=max(1, min(3, size - 1)), homes=1)


def customer_ordinal(peer_name: str) -> Optional[int]:
    """``CUSTOMER`` -> 1, ``CUSTOMER_3`` -> 3, anything else -> None."""
    if peer_name == "CUSTOMER":
        return 1
    match = re.match(r"^CUSTOMER_(\d+)$", peer_name)
    return int(match.group(1)) if match else None


def attachment_isp_index(peer: ExternalPeer) -> int:
    """The community slot of a transit-forbidden attachment.

    ``ISP_5`` / ``PEER_5`` -> 5; names without digits fall back to the
    attached router's index so custom peers still get a stable slot.
    """
    for name in (peer.peer_name, peer.router):
        digits = "".join(char for char in name if char.isdigit())
        if digits:
            return int(digits)
    raise ValueError(f"cannot derive an index for attachment {peer!r}")


@dataclass(frozen=True)
class RoleAttachment:
    """One external attachment with its resolved role."""

    peer: ExternalPeer
    kind: RoleKind
    index: int  # community slot (ISP/peer) or customer ordinal

    @property
    def router(self) -> str:
        return self.peer.router

    @property
    def role_name(self) -> str:
        """The role label used in per-role verdicts (``ISP_3``,
        ``CUSTOMER_2``, ``PEER_7``) — the attachment's peer name."""
        return self.peer.peer_name


@dataclass(frozen=True)
class RoleAssignment:
    """The concrete role placement of one topology, read-only.

    ``groups`` maps each transit-forbidden index to its attachments —
    more than one entry means a multi-homed ISP sharing one community
    slot across all its borders.  Stages read a topology's assignment
    from its :func:`~repro.topology.context.topology_context`.
    """

    customers: Tuple[RoleAttachment, ...]
    groups: Mapping[int, Tuple[RoleAttachment, ...]]

    @classmethod
    def from_topology(cls, topology: Topology) -> "RoleAssignment":
        order = {
            name: rank for rank, name in enumerate(topology.router_names())
        }
        customers: List[RoleAttachment] = []
        forbidden: List[RoleAttachment] = []
        for peer in topology.externals:
            ordinal = customer_ordinal(peer.peer_name)
            if ordinal is not None:
                customers.append(RoleAttachment(peer, RoleKind.CUSTOMER, ordinal))
                continue
            kind = (
                RoleKind.PEER
                if peer.peer_name.startswith("PEER")
                else RoleKind.PROVIDER
            )
            forbidden.append(
                RoleAttachment(peer, kind, attachment_isp_index(peer))
            )
        customers.sort(key=lambda item: (item.index, order[item.router]))
        forbidden.sort(
            key=lambda item: (item.index, order[item.router], item.role_name)
        )
        groups: Dict[int, List[RoleAttachment]] = {}
        for attachment in forbidden:
            groups.setdefault(attachment.index, []).append(attachment)
        return cls(
            tuple(customers),
            MappingProxyType({index: tuple(group) for index, group in groups.items()}),
        )

    # -- queries ---------------------------------------------------------------

    def indices(self) -> List[int]:
        """Every transit-forbidden community slot, ascending."""
        return sorted(self.groups)

    def transit_forbidden(self) -> List[RoleAttachment]:
        """Every ISP/peer attachment, in (index, router) order."""
        return [
            attachment
            for index in self.indices()
            for attachment in self.groups[index]
        ]

    def attachments_of(self, router: str) -> List[RoleAttachment]:
        """The transit-forbidden attachments hosted by one router."""
        return [
            attachment
            for attachment in self.transit_forbidden()
            if attachment.router == router
        ]

    def role_names(self) -> List[str]:
        """Every distinct role label: customers first, then ISPs/peers."""
        names = [attachment.role_name for attachment in self.customers]
        seen = set(names)
        for attachment in self.transit_forbidden():
            if attachment.role_name not in seen:
                seen.add(attachment.role_name)
                names.append(attachment.role_name)
        return names

