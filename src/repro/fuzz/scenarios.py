"""Seeded random fuzz scenarios and their canonical JSON form.

A scenario is a pure function of ``(fuzz_seed, index)``: the generator
derives one CRC32-seeded RNG per iteration, so the scenario *sequence*
is byte-identical no matter how iterations are distributed over
workers, and any corpus entry names the exact coordinates that
produced it.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Tuple

__all__ = ["FuzzEdit", "FuzzScenario", "scenario_at"]

# Mesh is double-weighted: dense graphs are where best-path ties (and
# historically, tie-break bugs) live.
_FAMILY_POOL = (
    "mesh", "mesh", "ring", "chain", "star", "dumbbell", "random", "waxman",
)

# Edit-op pool, weighted toward the operations that historically find
# bugs: multi-origin prefixes (tie-breaks) and filter holes (verdicts);
# the core-export edits are the ones that change internal sessions.
_OP_POOL = (
    "announce_shared_prefix",
    "announce_shared_prefix",
    "permit_all_egress",
    "drop_first_deny",
    "strip_additive",
    "bump_local_pref",
    "withdraw_network",
    "drop_core_list_entry",
    "deny_core_export",
    "noop",
)

# Role specs small enough for the sizes we fuzz (attachments <= size).
_ROLE_POOL = ("c2i2h1", "c2i2h2", "c1i2h1p1")


@dataclass(frozen=True)
class FuzzEdit:
    """One policy edit: an abstract router index plus a catalog op.

    The index resolves against the sorted router names modulo the
    router count (see :func:`repro.fuzz.edits.resolve_router`), so the
    same edit stays meaningful while the shrinker shrinks the size.
    """

    router_index: int
    op: str

    def to_dict(self) -> dict:
        return {"router_index": self.router_index, "op": self.op}

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzEdit":
        return cls(router_index=int(data["router_index"]), op=str(data["op"]))


@dataclass(frozen=True)
class FuzzScenario:
    """One fuzz input: topology coordinates plus a policy-edit sequence."""

    family: str
    size: int
    topology_seed: int = 0
    roles: str = "default"
    topo: str = "default"
    place: str = "default"
    edits: Tuple[FuzzEdit, ...] = field(default_factory=tuple)

    def key(self) -> str:
        edits = ",".join(f"{e.router_index}.{e.op}" for e in self.edits)
        return (
            f"{self.family}:{self.size}:{self.topology_seed}:{self.roles}:"
            f"{self.topo}:{self.place}:[{edits}]"
        )

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "size": self.size,
            "topology_seed": self.topology_seed,
            "roles": self.roles,
            "topo": self.topo,
            "place": self.place,
            "edits": [edit.to_dict() for edit in self.edits],
        }

    def to_json(self) -> str:
        """Canonical serialized form (sorted keys, no whitespace churn) —
        the byte-identity contract of the determinism tests."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzScenario":
        return cls(
            family=str(data["family"]),
            size=int(data["size"]),
            topology_seed=int(data.get("topology_seed", 0)),
            roles=str(data.get("roles", "default")),
            topo=str(data.get("topo", "default")),
            place=str(data.get("place", "default")),
            edits=tuple(
                FuzzEdit.from_dict(edit) for edit in data.get("edits", ())
            ),
        )

    def without_edit(self, index: int) -> "FuzzScenario":
        return replace(
            self, edits=self.edits[:index] + self.edits[index + 1:]
        )


def scenario_at(fuzz_seed: int, index: int) -> FuzzScenario:
    """The ``index``-th scenario of the ``fuzz_seed`` sequence.

    Pure and position-independent: worker pools can claim indices in
    any order and still fuzz the identical sequence.
    """
    rng = random.Random(
        zlib.crc32(f"fuzz:{fuzz_seed}:{index}".encode("utf-8"))
    )
    family = rng.choice(_FAMILY_POOL)
    roles = "default"
    topo = "default"
    place = "default"
    if family in ("random", "waxman"):
        size = rng.randint(6, 8)
        if rng.random() < 0.6:
            roles = rng.choice(_ROLE_POOL)
            if rng.random() < 0.3:
                place = "degree"
        if family == "random" and rng.random() < 0.5:
            topo = f"p={rng.choice(('0.4', '0.6'))}"
    elif family == "mesh":
        size = rng.randint(4, 6)  # dense: keep the grid affordable
    else:
        size = rng.randint(4, 7)
    edits = tuple(
        FuzzEdit(router_index=rng.randrange(32), op=rng.choice(_OP_POOL))
        for _ in range(rng.randint(1, 4))
    )
    return FuzzScenario(
        family=family,
        size=size,
        topology_seed=rng.randrange(1024),
        roles=roles,
        topo=topo,
        place=place,
        edits=edits,
    )
