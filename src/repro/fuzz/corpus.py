"""The shrunk-repro corpus: serialize, load, and replay.

Every mismatch the fuzzer finds is shrunk and serialized as one JSON
file under ``tests/fuzz_corpus/``.  A corpus file is self-contained:
the minimal scenario, the toggle combination that diverged, the
baseline it diverged from, and the divergence observed at capture
time.  ``replay_record`` re-runs the comparison from scratch, so each
checked-in file is a permanent tier-1 differential test — it fails
again the moment the bug it captured is reintroduced.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from .oracle import diff_observations, observe
from .scenarios import FuzzScenario

__all__ = [
    "CORPUS_VERSION",
    "corpus_files",
    "load_repro",
    "make_record",
    "replay_file",
    "replay_record",
    "repro_filename",
    "write_repro",
]

# v2: combinations name only the two registered toggles
# (incremental_simulation, memoization), and the ``check`` kind is gone
# — every record compares observations against the baseline.
CORPUS_VERSION = 2


def make_record(
    scenario: FuzzScenario,
    combo: Dict[str, Any],
    baseline: Dict[str, Any],
    mismatch: str,
    fuzz_seed: Optional[int] = None,
    index: Optional[int] = None,
) -> dict:
    """One corpus record: ``combo``'s observation of ``scenario``
    diverged from ``baseline``'s."""
    record = {
        "kind": "fuzz_repro",
        "version": CORPUS_VERSION,
        "scenario": scenario.to_dict(),
        "combo": combo,
        "baseline": baseline,
        "mismatch": mismatch,
    }
    if fuzz_seed is not None:
        record["fuzz_seed"] = fuzz_seed
    if index is not None:
        record["index"] = index
    return record


def repro_filename(record: dict) -> str:
    """A deterministic, content-addressed corpus filename."""
    material = json.dumps(
        {
            "scenario": record["scenario"],
            "combo": record["combo"],
            "baseline": record["baseline"],
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]
    scenario = FuzzScenario.from_dict(record["scenario"])
    return f"fuzz-{scenario.family}-{scenario.size}-{digest}.json"


def write_repro(directory: "Path | str", record: dict) -> Path:
    """Serialize a record into the corpus directory (idempotent: the
    content-addressed name means re-finding the same bug rewrites the
    same file byte for byte)."""
    target_dir = Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / repro_filename(record)
    target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return target


def load_repro(path: "Path | str") -> dict:
    record = json.loads(Path(path).read_text())
    if record.get("kind") != "fuzz_repro":
        raise ValueError(f"{path} is not a fuzz repro file")
    return record


def replay_record(record: dict) -> Optional[str]:
    """Re-run a corpus record's comparison from scratch.

    Returns ``None`` when the paths agree (the bug stays fixed) or the
    divergence description when they do not.  A record naming a toggle
    the registry does not know (e.g. one retired since capture) raises
    ``ValueError`` naming it.
    """
    scenario = FuzzScenario.from_dict(record["scenario"])
    return diff_observations(
        observe(scenario, record["baseline"]),
        observe(scenario, record["combo"]),
    )


def replay_file(path: "Path | str") -> Optional[str]:
    return replay_record(load_repro(path))


def corpus_files(directory: "Path | str") -> List[Path]:
    """Every corpus file, sorted for deterministic replay order."""
    target = Path(directory)
    if not target.is_dir():
        return []
    return sorted(target.glob("*.json"))
