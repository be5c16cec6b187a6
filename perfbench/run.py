#!/usr/bin/env python3
"""Closed-loop end-to-end benchmark of the Verified Prompt Programming loop.

Run from the repository root:

    python3 perfbench/run.py --workload nt-grid --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, each
time scaled to the reference host's speed (``hostclock``).
``--trace 1`` measures an untraced part, then one traced pass with a
span around every call into each layer, and reports the per-layer
metrics; it writes the trace and the layer table under
``.perfbench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record-digests N`` re-records ``perfbench/expected.json``: the result
digests of workload seeds ``0..N-1`` that the oracles compare against.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("nt-grid", "translate", "converge-scale")
SETUP_REPEATS = 9
MIN_PASSES = 2  # each operation timed by its best of at least two passes


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument("--record-digests", type=int, metavar="N")
    args = parser.parse_args(argv)
    if args.record_digests is None and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _setup_probe_s(workload: str, seed: int) -> float:
    """The set-up time of a fresh process (see :func:`_cold_setup_s`)."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        check=True,
        timeout=120,
        stdout=subprocess.PIPE,
        text=True,
    )
    return float(completed.stdout.split()[-1])


def _cold_setup_s(workload: str, seed: int) -> float:
    """Run in a fresh process: the time to import the program and build
    the workload's inputs, what a user waits before the first scenario.

    Scaled by the faster of two host probes taken right after: probes
    taken before would run cold in the fresh process and read slow.
    """
    started = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[workload](seed, OUT_DIR)
    elapsed = time.perf_counter() - started
    from hostclock import REFERENCE_MS, HostClock

    clock = HostClock()
    clock.probe()
    clock.probe()
    return elapsed * REFERENCE_MS / min(clock.readings_ms)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, seconds: float, tally, min_passes: int) -> list:
    """At least ``min_passes`` timed passes, then more while another
    pass fits in ``seconds`` of timed work."""
    results = []
    timed = 0.0
    while True:
        result = workload.run_pass()
        workload.verify(result, tally)
        # Checked: drop the outputs, so peak RSS holds one pass's outputs
        # whatever the number of passes.
        result.outcomes = []
        results.append(result)
        timed += result.wall_s
        if len(results) >= min_passes and timed + result.wall_s > seconds:
            return results


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _per_op_best(samples: List[List[float]]) -> List[float]:
    """Each operation's fastest latency over the passes.  Interference
    from other tenants of the host only ever adds time, and it comes in
    bursts that slow an operation in one pass but rarely in all."""
    return [min(values) for values in zip(*samples)]


def _scaled(values: List[float], scales: List[float]) -> List[float]:
    return [value * scale for value, scale in zip(values, scales)]


def _pass_ms(results) -> float:
    """The duration of one pass with host interference filtered out: the
    sum of its operations' best scaled latencies plus the median loop
    overhead between them, scaled by the pass's median scale."""
    work = sum(_per_op_best([_scaled(r.latencies_ms, r.latency_scales)
                             for r in results]))
    work += sum(_per_op_best([_scaled(r.full_ms, r.full_scales) for r in results]))
    overhead = _median([
        (1000.0 * r.wall_s - sum(r.latencies_ms) - sum(r.full_ms))
        * _median(r.latency_scales + r.full_scales)
        for r in results
    ])
    return work + overhead


def _end_to_end(results, setup_s: float):
    """The end-to-end metrics (JSON) and the latency percentiles."""
    from stats import percentile

    latencies = _per_op_best([_scaled(r.latencies_ms, r.latency_scales)
                              for r in results])
    p50 = percentile(latencies, 0.5)
    p90 = percentile(latencies, 0.9)
    metrics = {
        "ops_per_s": (results[0].ops / (_pass_ms(results) / 1000.0), "1/s"),
        "op_p50_ms": (p50.value, "ms"),
        "op_p90_ms": (p90.value, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return metrics, p50, p90


def _report_lines(name, results, metrics, p50, p90, tally):
    """Every end-to-end metric under its ROADMAP name, with unit and count."""
    ops = sum(result.ops for result in results)
    wall = sum(result.wall_s for result in results)
    fulls = _per_op_best([_scaled(r.full_ms, r.full_scales) for r in results])
    leverages = [value for result in results for value in result.leverages]
    verified = sum(result.verified for result in results)
    scales = sorted(
        scale for r in results for scale in r.latency_scales + r.full_scales
    )
    lines = [
        f"{name}: {len(results)} passes, {ops} operations in {wall:.2f} s; "
        f"each operation timed by its best pass",
        f"  host scale          {scales[0]:.3f}-{scales[-1]:.3f} "
        f"(median {_median(scales):.3f}; times below are scaled to the "
        f"reference host)",
    ]
    if name == "converge-scale":
        lines += [
            f"  checks_per_s        {metrics['ops_per_s'][0]:.3f} 1/s",
            f"  delta_check_p50_ms  {p50.render()}",
            f"  delta_check_p90_ms  {p90.render()}",
            f"  full_check_p50_ms   {_median(fulls):.3f} ms (n={len(fulls)})",
            f"  verdict_holds_ratio {verified / ops:.4f}",
        ]
    else:
        lines += [
            f"  scenarios_per_s     {metrics['ops_per_s'][0]:.3f} 1/s",
            f"  scenario_p50_ms     {p50.render()}",
            f"  scenario_p90_ms     {p90.render()}",
            f"  verified_ratio      {verified / ops:.4f}",
            f"  leverage_median     {_median(leverages):.3f} x",
        ]
    lines += [
        f"  setup_s             {metrics['setup_s'][0]:.4f} s "
        f"(median of {SETUP_REPEATS} cold starts)",
        f"  peak_rss_mb         {metrics['peak_rss_mb'][0]:.1f} MB",
        f"  failed_ratio        {tally.failed_ratio:.4f} "
        f"({tally.failed}/{tally.attempted})",
    ]
    return lines


def _per_layer(untraced, traced, tracer):
    """The per-layer metrics of the traced pass."""
    from spans import LAYERS, layer_table, root_op_ns, span_coverage

    table = layer_table(tracer.spans)
    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        stats = table.get(layer)
        metrics[f"{layer}.calls"] = (stats.calls if stats else 0, "count")
        metrics[f"{layer}.self_ms"] = (stats.self_ms if stats else 0.0, "ms")
    parse = table.get("cisco.parse")
    metrics["cisco.parse.distinct_ratio"] = (
        parse.distinct / parse.calls if parse else 0.0, "ratio"
    )
    counters = traced.counters
    lookups = counters.get("memo_hits", 0) + counters.get("memo_misses", 0)
    metrics["symbolic.memo.hit_ratio"] = (
        counters["memo_hits"] / lookups if lookups else 0.0, "ratio"
    )
    runs = counters.get("full_runs", 0) + counters.get("incremental_runs", 0)
    metrics["batfish.incremental_ratio"] = (
        counters["incremental_runs"] / runs if runs else 0.0, "ratio"
    )
    metrics["batfish.evaluations"] = (counters.get("evaluations", 0), "count")
    busy_ns = root_op_ns(tracer.spans)
    wall_ns = traced.wall_s * 1e9
    metrics["campaign.engine.self_ms"] = (max(0.0, wall_ns - busy_ns) / 1e6, "ms")
    metrics["campaign.worker_idle_share"] = (
        max(0.0, 1.0 - busy_ns / wall_ns), "ratio"
    )
    untraced_rate = sum(r.ops for r in untraced) / sum(r.wall_s for r in untraced)
    metrics["trace.overhead_ratio"] = (
        (traced.ops / traced.wall_s) / untraced_rate, "ratio"
    )
    metrics["trace.span_coverage"] = (span_coverage(tracer.spans), "ratio")
    metrics["quality.verified_ratio"] = (traced.verified / traced.ops, "ratio")
    leverage = _median(traced.leverages)
    metrics["quality.leverage_median"] = (
        leverage if math.isfinite(leverage) else 0.0, "x"
    )
    return metrics, table


def _layer_lines(table, traced) -> List[str]:
    """The per-layer table: calls, self and inclusive time, shares."""
    from spans import ROOT_OPS

    op_ms = sum(stats.total_ms for name, stats in table.items() if name in ROOT_OPS)
    lines = [
        f"  {'span':<24}{'calls':>9}{'self_ms':>12}{'self%':>8}"
        f"{'incl_ms':>12}{'incl%':>8}",
    ]
    for name, stats in sorted(table.items(), key=lambda item: -item[1].self_ns):
        self_share = 100 * stats.self_ms / op_ms if op_ms else 0.0
        incl_share = 100 * stats.total_ms / op_ms if op_ms else 0.0
        lines.append(
            f"  {name:<24}{stats.calls:>9}{stats.self_ms:>12.1f}"
            f"{self_share:>7.1f}%{stats.total_ms:>12.1f}{incl_share:>7.1f}%"
        )
    lines.append(
        f"  (shares are of {op_ms:.1f} ms in scenario/check spans; the "
        f"traced pass took {1000 * traced.wall_s:.1f} ms)"
    )
    return lines


def _record_digests(count: int) -> int:
    from stats import Tally
    from workloads import EXPECTED_PATH, NtGrid, Translate

    recorded: Dict[str, Dict[str, str]] = {"nt": {}, "translate": {}}
    for seed in range(count):
        for workload in (NtGrid(seed, OUT_DIR), Translate(seed, OUT_DIR)):
            tally = Tally()
            result = workload.run_pass()
            workload.verify(result, tally)
            if tally.failures:
                print("\n".join(tally.failures), file=sys.stderr)
                return 1
            recorded[workload.digest_kind][str(seed)] = result.digest
            print(f"seed {seed} {workload.name}: {result.digest}", flush=True)
    EXPECTED_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        print(repr(_cold_setup_s(args.workload, args.seed)))
        return 0
    if args.record_digests is not None:
        return _record_digests(args.record_digests)
    from workloads import WORKLOADS

    from spans import Tracer, layer_bindings, patched, write_chrome_trace
    from stats import Tally
    from workloads import REQUIRED_LAYERS

    setup_s = statistics.median(
        _setup_probe_s(args.workload, args.seed) for _ in range(SETUP_REPEATS)
    )
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    tally = Tally()
    if not args.trace:
        results = _measure(workload, args.seconds, tally, MIN_PASSES)
        metrics, p50, p90 = _end_to_end(results, setup_s)
        lines = _report_lines(args.workload, results, metrics, p50, p90, tally)
    else:
        untraced = _measure(workload, args.seconds / 2, tally, 1)
        tracer = Tracer()
        bindings = layer_bindings(tracer)
        with patched(bindings + workload.root_bindings(tracer)):
            with tracer.root("setup", "setup"):
                traced_workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
            traced = traced_workload.run_pass(tracer)
        traced_workload.verify(traced, tally)
        metrics, table = _per_layer(untraced, traced, tracer)
        for layer in REQUIRED_LAYERS[args.workload]:
            tally.check(
                table.get(layer) is not None,
                f"traced pass recorded no {layer} calls",
            )
        metrics["quality.failed_ratio"] = (tally.failed_ratio, "ratio")
        stem = f"{args.workload}-seed{args.seed}"
        trace_file = OUT_DIR / f"trace-{stem}.json"
        write_chrome_trace(str(trace_file), tracer.spans)
        layers_file = OUT_DIR / f"layers-{stem}.json"
        layers_file.write_text(json.dumps(
            {name: {"value": value, "unit": unit}
             for name, (value, unit) in metrics.items()},
            indent=2,
        ) + "\n")
        lines = [
            f"{args.workload}: traced pass of {traced.ops} operations, "
            f"{len(tracer.spans)} spans -> {trace_file.relative_to(ROOT)}",
            *_layer_lines(table, traced),
        ]
    for reason in tally.failures[:20]:
        lines.append(f"  FAILED: {reason}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": max(1, tally.attempted),
        "failed": min(tally.failed, max(1, tally.attempted)),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
