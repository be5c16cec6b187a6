"""Full vs incremental BGP re-convergence across family × size.

For each grid cell: converge the family's reference network once, then
apply a rotation of single-router config edits.  Two edit kinds make
two rows per cell:

* ``egress``: strip / restore one border router's egress filters — the
  repair loop's canonical delta.  The filters sit on external sessions,
  which the simulation does not model, so the derived delta seeds no
  session at all.
* ``core-list``: drop / restore the first entry of the prefix list a
  border router's core export map matches on — a list-only change
  that re-advertises every internal session out of that router.  Hub
  stars have no core export map, so they get no such row.

Each edit is re-converged twice, from scratch and incrementally, the
resulting RIBs are asserted identical, and the wall-clock plus
route-evaluation counts are compared.

Emits a ``BENCH_incremental_sim.json`` baseline at the repo root (the
perf trajectory's first data point).  Also runnable standalone for the
CI smoke job::

    python benchmarks/bench_incremental_sim.py --small --json out.json
"""

import argparse
import copy
import json
import sys
import time
from pathlib import Path

from repro.batfish.bgpsim import BgpSimulation, SimulationState, rib_snapshots
from repro.fuzz.edits import drop_core_list_entry
from repro.netmodel.routing_policy import Action, RouteMap, RouteMapClause
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs

GRID = {
    "star": (6, 10, 14),
    "chain": (6, 10, 14),
    "ring": (6, 10, 14),
    "mesh": (6, 9, 12),
    "dumbbell": (6, 10, 14),
}

SMALL_GRID = {family: (4, 6) for family in GRID}

EDITS = 6  # single-router deltas per cell

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_incremental_sim.json"


def _policy_routers(configs, map_prefix):
    return [
        name
        for name in sorted(configs)
        if any(n.startswith(map_prefix) for n in configs[name].route_maps)
    ]


def _strip_filters(configs, router):
    config = configs[router]
    for name in list(config.route_maps):
        if name.startswith("FILTER_COMM_OUT_"):
            replacement = RouteMap(name)
            replacement.add_clause(RouteMapClause(seq=10, action=Action.PERMIT))
            config.route_maps[name] = replacement


# edit kind -> (maps a victim must hold, the breaking edit)
EDIT_KINDS = {
    "egress": ("FILTER_COMM_OUT_", _strip_filters),
    "core-list": ("EXPORT_CORE_", drop_core_list_entry),
}


def _edit_sequence(reference, kind):
    """EDITS config snapshots, each one router away from the previous:
    break a border router with the kind's edit, then restore it,
    rotating through the routers that hold the kind's maps."""
    map_prefix, breaking = EDIT_KINDS[kind]
    routers = _policy_routers(reference, map_prefix)
    sequence = []
    current = copy.deepcopy(reference)
    for step in range(EDITS):
        victim = routers[step % len(routers)]
        nxt = copy.deepcopy(current)
        if step % 2 == 0:
            breaking(nxt, victim)
        else:
            nxt[victim] = copy.deepcopy(reference[victim])
        sequence.append((victim, nxt))
        current = nxt
    return sequence


def measure_cell(family, size, kind="egress"):
    """One grid cell and edit kind: returns a result row dict."""
    net = generate_network(family, size)
    reference = build_reference_configs(net.topology)
    sequence = _edit_sequence(reference, kind)

    full_s = 0.0
    full_evals = 0
    full_ribs = []
    for _victim, configs in sequence:
        snapshot = copy.deepcopy(configs)
        started = time.perf_counter()
        simulation = BgpSimulation(snapshot)
        simulation.run()
        full_s += time.perf_counter() - started
        full_evals += simulation.evaluations
        full_ribs.append(rib_snapshots(simulation))

    state = SimulationState(copy.deepcopy(reference))
    incremental_s = 0.0
    incremental_evals = 0
    identical = True
    for index, (victim, configs) in enumerate(sequence):
        snapshot = copy.deepcopy(configs)
        started = time.perf_counter()
        stats = state.resimulate(snapshot)
        incremental_s += time.perf_counter() - started
        incremental_evals += stats.evaluations
        assert stats.incremental, f"{family}-{size} {kind} fell back to full"
        if rib_snapshots(state.simulation) != full_ribs[index]:
            identical = False
    assert identical, f"{family}-{size} {kind}: incremental diverged from full"

    return {
        "family": family,
        "size": size,
        "edit": kind,
        "edits": EDITS,
        "sessions": len(state.simulation.sessions),
        "full_ms": round(1000 * full_s, 3),
        "incremental_ms": round(1000 * incremental_s, 3),
        "speedup": round(full_s / max(incremental_s, 1e-9), 2),
        "full_evals": full_evals,
        "incremental_evals": incremental_evals,
        "eval_ratio": round(full_evals / max(incremental_evals, 1), 2),
        "identical": identical,
    }


def run_grid(grid):
    rows = [
        measure_cell(family, size, kind)
        for kind in EDIT_KINDS
        for family in sorted(grid)
        if kind == "egress" or family != "star"
        for size in grid[family]
    ]
    largest_mesh = max(
        (row for row in rows if row["family"] == "mesh" and row["edit"] == "egress"),
        key=lambda row: row["size"],
    )
    return {
        "benchmark": "incremental_sim",
        "edits_per_cell": EDITS,
        "largest_mesh_speedup": largest_mesh["speedup"],
        "rows": rows,
    }


def render(report):
    lines = [
        "incremental re-simulation vs full convergence "
        f"({report['edits_per_cell']} single-router edits per cell)",
        f"{'edit':>9} {'family':>9} {'n':>3} {'full':>9} {'incr':>9} "
        f"{'speedup':>8} {'evals':>13}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['edit']:>9} {row['family']:>9} {row['size']:>3} "
            f"{row['full_ms']:>7.1f}ms {row['incremental_ms']:>7.1f}ms "
            f"{row['speedup']:>7.2f}x "
            f"{row['full_evals']:>6}/{row['incremental_evals']:<6}"
        )
    lines.append(
        f"largest mesh speedup (egress edits): "
        f"{report['largest_mesh_speedup']:.2f}x"
    )
    return "\n".join(lines)


def _write_baseline(report, path):
    target = Path(path)
    target.write_text(json.dumps(report, indent=2) + "\n")
    return target


def _bench(grid=GRID, json_path=BASELINE_PATH):
    report = run_grid(grid)
    _write_baseline(report, json_path)
    return render(report)


def test_incremental_sim_speedup(benchmark, capsys):
    from conftest import run_and_print

    text = run_and_print(benchmark, capsys, _bench)
    report = json.loads(BASELINE_PATH.read_text())
    assert all(row["identical"] for row in report["rows"])
    # The acceptance bar: ≥2x wall-clock for single-router deltas on
    # the largest mesh (measured ~5-10x; 2x absorbs CI noise).
    assert report["largest_mesh_speedup"] >= 2.0, report["largest_mesh_speedup"]
    assert "speedup" in text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small", action="store_true",
        help="small grid for CI smoke runs",
    )
    parser.add_argument(
        "--json", default=str(BASELINE_PATH),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    grid = SMALL_GRID if args.small else GRID
    report = run_grid(grid)
    print(render(report))
    path = _write_baseline(report, args.json)
    print(f"wrote {path}")
    if not args.small and report["largest_mesh_speedup"] < 2.0:
        print("FAIL: largest-mesh speedup below 2x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
