"""Scenario-campaign engine: parallel speedup and symbolic-cache gains.

Two comparisons on the same deterministic scenario grids:

* serial vs 4 workers on the campaign scheduler (wall-clock ratio
  tracks the core count, less about a second of worker start-up;
  row-level results are identical either way);
* `CandidateUniverse`/verdict memoization off vs on over a mesh grid —
  the ROADMAP's dominant cost — reporting the cache hit rate alongside
  the speedup.
"""

from conftest import run_and_print
from repro.experiments.campaign import build_grid, run_campaign
from repro.symbolic import reset_caches, set_memoization

WORKERS = 4


def _row_key(row):
    return (
        row.family, row.size, row.seed, row.profile, row.iips,
        row.automated_prompts, row.human_prompts, row.verified,
    )


def _campaign_speedup() -> str:
    grid = build_grid(
        ["star", "chain", "ring", "mesh"], [6, 8], seeds=2
    )
    serial = run_campaign(grid, workers=1)
    parallel = run_campaign(grid, workers=WORKERS)
    assert [_row_key(row) for row in serial.rows] == [
        _row_key(row) for row in parallel.rows
    ], "parallel campaign diverged from serial"
    speedup = serial.duration_s / max(parallel.duration_s, 1e-9)
    lines = [
        f"campaign speedup ({len(grid)} scenarios)",
        f"  serial   ( 1 worker ): {serial.duration_s:6.2f}s",
        f"  parallel ({WORKERS:2} workers): {parallel.duration_s:6.2f}s",
        f"  speedup: {speedup:.2f}x",
    ]
    for summary in serial.by_family():
        lines.append("  " + summary.render())
    lines.append("")
    lines.append(_memoization_speedup())
    return "\n".join(lines)


def _memoization_speedup() -> str:
    """Mesh grid with the symbolic caches disabled vs enabled."""
    grid = build_grid(["mesh"], [6, 8], seeds=2)
    reset_caches()
    set_memoization(False)
    try:
        cold = run_campaign(grid, workers=1)
    finally:
        set_memoization(True)
    reset_caches()
    warm = run_campaign(grid, workers=1)
    assert [_row_key(row) for row in cold.rows] == [
        _row_key(row) for row in warm.rows
    ], "memoized campaign diverged from unmemoized"
    speedup = cold.duration_s / max(warm.duration_s, 1e-9)
    rate = warm.cache_hit_rate
    return "\n".join(
        [
            f"universe memoization (mesh grid, {len(grid)} scenarios)",
            f"  memoization off: {cold.duration_s:6.2f}s",
            f"  memoization on : {warm.duration_s:6.2f}s",
            f"  speedup: {speedup:.2f}x  cache: {warm.cache_hits} hits / "
            f"{warm.cache_misses} misses "
            f"({100 * (rate or 0):.1f}% hit rate)",
        ]
    )


def test_campaign_parallel_speedup(benchmark, capsys):
    text = run_and_print(benchmark, capsys, _campaign_speedup)
    assert "speedup:" in text
    assert "verified (100.0%)" in text
    assert "hit rate" in text
