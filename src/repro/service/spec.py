"""What a client submits: a grid specification plus scheduling knobs.

A :class:`CampaignSpec` carries exactly the axes the batch CLI's
``build_grid`` accepts, so a grid submitted to the service enumerates
the same scenarios, in the same order, as ``repro campaign`` given the
same flags — the precondition for the merged shard journals rendering
byte-identical artifacts.

``chaos_kill_key`` / ``chaos_always`` are deliberate crash injection
for tests and CI smoke jobs: a worker SIGKILLs itself immediately
before executing the named scenario (first dispatch of the unit only,
unless ``chaos_always``), which exercises the death-detection →
resubmit → retry-budget path deterministically instead of racing a
signal against a fast grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional

from ..experiments.campaign import Scenario, build_grid

__all__ = ["CampaignSpec", "DEFAULT_SHARD_SIZE", "shard_scenarios"]

# Fallback unit size when neither the spec nor the grid suggests one.
DEFAULT_SHARD_SIZE = 4


@dataclass(frozen=True)
class CampaignSpec:
    """One submitted grid: the campaign axes plus scheduling knobs."""

    families: List[str] = field(default_factory=lambda: ["star"])
    sizes: List[int] = field(default_factory=lambda: [4])
    seeds: int = 1
    profiles: List[str] = field(default_factory=lambda: ["default"])
    iip_ablation: bool = False
    roles: List[str] = field(default_factory=lambda: ["default"])
    topos: List[str] = field(default_factory=lambda: ["default"])
    places: List[str] = field(default_factory=lambda: ["default"])
    # Scenarios per work unit; None picks a size that gives each worker
    # a few units of pipelining headroom.
    shard_size: Optional[int] = None
    # Crash injection (tests/CI only): SIGKILL the worker right before
    # this scenario key runs — once per unit, or on every attempt.
    chaos_kill_key: Optional[str] = None
    chaos_always: bool = False

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        """Build a spec from a submission body; unknown keys are an
        error (a typoed axis silently defaulting would fake coverage)."""
        if not isinstance(payload, dict):
            raise ValueError("campaign spec must be a JSON object")
        types = {spec.name: str(spec.type) for spec in fields(cls)}
        unknown = sorted(set(payload) - set(types))
        if unknown:
            raise ValueError(
                f"unknown campaign spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(types))})"
            )
        for name, value in payload.items():
            if not _TYPE_CHECKS[types[name]](value):
                expected = "int >= 1" if types[name] == "int" else types[name]
                raise ValueError(
                    f"campaign spec field {name!r} must be {expected}, "
                    f"got {value!r}"
                )
        return cls(**payload)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def build(self) -> List[Scenario]:
        """Enumerate the grid (same validation as the batch CLI)."""
        return build_grid(
            self.families,
            self.sizes,
            seeds=self.seeds,
            profiles=self.profiles,
            iip_ablation=self.iip_ablation,
            roles=self.roles or ["default"],
            topos=self.topos or ["default"],
            places=self.places or ["default"],
        )

    def resolve_shard_size(self, grid_len: int, workers: int) -> int:
        """The unit size this campaign shards under (stored with the
        campaign so restarts re-shard identically even if the service
        restarts with a different worker count)."""
        if self.shard_size is not None:
            if self.shard_size < 1:
                raise ValueError(
                    f"shard_size must be >= 1, got {self.shard_size}"
                )
            return self.shard_size
        # ~4 units of pipelining headroom per worker keeps every worker
        # busy near the tail without making units too small to amortize
        # warm-cache reuse.
        return max(
            1,
            min(DEFAULT_SHARD_SIZE, math.ceil(grid_len / max(1, workers * 4))),
        )


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Submission bodies are outside input: each field is checked against
# its annotation before the dataclass sees it, so a malformed spec is a
# ValueError naming the field (HTTP 400), never a TypeError deep inside
# grid enumeration.
_TYPE_CHECKS: Dict[str, Callable[[Any], bool]] = {
    "List[str]": lambda v: isinstance(v, list)
    and all(isinstance(item, str) for item in v),
    "List[int]": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "int": lambda v: _is_int(v) and v >= 1,  # seeds: the one plain int
    "bool": lambda v: isinstance(v, bool),
    "Optional[int]": lambda v: v is None or _is_int(v),
    "Optional[str]": lambda v: v is None or isinstance(v, str),
}


def shard_scenarios(
    grid: List[Scenario], shard_size: int
) -> List[List[Scenario]]:
    """Contiguous grid slices: deterministic for a (grid, shard_size)
    pair, so a restarted service rebuilds exactly the same units."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [
        grid[start:start + shard_size]
        for start in range(0, len(grid), shard_size)
    ]


def spec_fingerprint(spec: CampaignSpec) -> str:
    """A stable digest of the spec (used in logs/status, not identity)."""
    import zlib

    material = json.dumps(spec.to_dict(), sort_keys=True)
    return f"{zlib.crc32(material.encode('utf-8')):08x}"
