"""Differential fuzzing of the simulator/verifier toggle surface.

The repo carries two independent A/B toggles — incremental BGP
re-simulation and symbolic memoization — and nine topology-family
cells.  Each toggle selects between two genuinely different
algorithms, and the fast one must be observationally identical to the
reference one — the hand-written differential suites spot-check that
contract; this package fuzzes it continuously:

* :mod:`scenarios` generates seeded random (family, size, roles, topo
  knobs, placement, policy-edit sequence) scenarios;
* :mod:`oracle` runs one scenario under a toggle combination and
  records canonical observations (per-step RIBs, invariant violations
  with witnesses, global verdicts);
* :mod:`harness` drives the loop: all four combinations against the
  both-off baseline, streaming results through the campaign's JSONL
  journal substrate;
* :mod:`shrink` delta-debugs a mismatch down to a minimal repro;
* :mod:`corpus` serializes shrunk repros into ``tests/fuzz_corpus/``,
  where a pytest harness replays every file as a tier-1 differential
  test forever after.
"""

from .corpus import load_repro, replay_record, repro_filename, write_repro
from .harness import FuzzConfig, FuzzSummary, run_fuzz, run_fuzz_iteration
from .oracle import BASELINE, all_combos, diff_observations, observe
from .scenarios import FuzzEdit, FuzzScenario, scenario_at
from .shrink import shrink_scenario

__all__ = [
    "FuzzConfig",
    "FuzzEdit",
    "FuzzScenario",
    "FuzzSummary",
    "BASELINE",
    "all_combos",
    "diff_observations",
    "load_repro",
    "observe",
    "replay_record",
    "repro_filename",
    "run_fuzz",
    "run_fuzz_iteration",
    "scenario_at",
    "shrink_scenario",
    "write_repro",
]
