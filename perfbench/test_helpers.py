"""Tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parent / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.experiments.campaign import ScenarioResult  # noqa: E402

import hostclock  # noqa: E402
import spans  # noqa: E402
from stats import Tally, percentile  # noqa: E402
from workloads import (  # noqa: E402
    NtGrid,
    PassResult,
    converge_networks,
    nt_scenarios,
    translate_inputs,
)


# -- percentiles -----------------------------------------------------------------


def test_percentile_reports_value_and_sample_count():
    samples = [float(value) for value in range(1, 101)]
    p90 = percentile(samples, 0.9)
    assert p90.samples == 100
    assert p90.value == pytest.approx(90.1)
    p50 = percentile(samples, 0.5)
    assert p50.samples == 100
    assert p50.value == pytest.approx(50.5)
    assert "n=100" in p90.render()


def test_percentile_refuses_p90_below_100_samples():
    with pytest.raises(ValueError, match="at least 100 samples"):
        percentile([1.0] * 99, 0.9)
    assert percentile([1.0] * 100, 0.9).samples == 100


def test_median_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile([1.0] * 19, 0.5)
    assert percentile([2.0] * 20, 0.5).value == 2.0


# -- failure accounting ----------------------------------------------------------


def _row(scenario, **fields):
    base = ScenarioResult(
        family=scenario.family,
        size=scenario.size,
        seed=scenario.seed,
        profile=scenario.profile,
        iips=scenario.iips,
        roles=scenario.roles,
        topo=scenario.topo,
        place=scenario.place,
        verified=True,
        global_ok=True,
    )
    return replace(base, **fields)


def test_failed_ratio_counts_error_rows_and_oracle_mismatches(tmp_path):
    workload = NtGrid(0, tmp_path)
    rows = [_row(scenario) for scenario in workload.scenarios]
    rows[3] = _row(workload.scenarios[3], verified=False, error="ValueError: x")
    # Verified, but the global check failed: an oracle mismatch.
    rows[7] = _row(workload.scenarios[7], global_ok=False)
    # Verified, but one role's obligations failed: another mismatch.
    rows[9] = _row(workload.scenarios[9], roles_ok=2, roles_total=3)
    tally = Tally()
    workload.verify(PassResult(wall_s=1.0, ops=len(rows), latencies_ms=[],
                               outcomes=rows), tally)
    assert tally.attempted == len(rows)
    assert tally.failed == 3
    assert tally.failed_ratio == pytest.approx(3 / len(rows))


def test_clean_rows_fail_nothing(tmp_path):
    workload = NtGrid(0, tmp_path)
    rows = [_row(scenario) for scenario in workload.scenarios]
    tally = Tally()
    workload.verify(PassResult(wall_s=1.0, ops=len(rows), latencies_ms=[],
                               outcomes=rows), tally)
    assert tally.failures == []
    assert tally.failed_ratio == 0.0


def test_missing_rows_count_as_a_failure(tmp_path):
    workload = NtGrid(0, tmp_path)
    rows = [_row(scenario) for scenario in workload.scenarios[:-1]]
    tally = Tally()
    workload.verify(PassResult(wall_s=1.0, ops=len(rows), latencies_ms=[],
                               outcomes=rows), tally)
    assert tally.failed == 1


# -- seeded inputs ---------------------------------------------------------------


def test_nt_grid_inputs_follow_the_seed():
    first = [scenario.key() for scenario in nt_scenarios(3)]
    assert first == [scenario.key() for scenario in nt_scenarios(3)]
    assert first != [scenario.key() for scenario in nt_scenarios(4)]
    assert len(first) >= 100


def test_translate_inputs_follow_the_seed():
    assert translate_inputs(2) == translate_inputs(2)
    assert translate_inputs(2) != translate_inputs(3)
    assert len(translate_inputs(2)) >= 100


def test_converge_inputs_follow_the_seed():
    def shape(seed):
        return [
            (network.label, sorted(network.broken), network.edits)
            for network in converge_networks(seed)
        ]

    assert shape(5) == shape(5)
    assert shape(5) != shape(6)
    deltas = sum(len(edits) for _label, _victims, edits in shape(5))
    assert deltas >= 100


def test_converge_edits_alternate_break_and_repair():
    for network in converge_networks(0):
        breaking = [flag for _router, flag in network.edits]
        assert breaking == [True, False] * (len(breaking) // 2)
        routers = [router for router, _flag in network.edits]
        assert routers[0::2] == routers[1::2]


# -- spans and self time ---------------------------------------------------------


def _span(span_id, parent, name, start, end):
    return ("t", (1, span_id), None if parent is None else (1, parent),
            name, start, end, None)


def test_self_time_subtracts_nested_children():
    tree = [
        _span(1, None, "scenario", 0, 100),
        _span(2, 1, "llm.send", 10, 60),
        _span(3, 2, "llm.render", 20, 50),
        _span(4, 3, "cisco.parse", 25, 30),
        _span(5, 1, "cisco.parse", 70, 90),
    ]
    own = spans.self_times(tree)
    assert own[(1, 1)] == 100 - 50 - 20
    assert own[(1, 2)] == 50 - 30
    assert own[(1, 3)] == 30 - 5
    assert own[(1, 4)] == 5
    assert own[(1, 5)] == 20
    assert sum(own.values()) == 100
    table = spans.layer_table(tree)
    assert table["cisco.parse"].calls == 2
    assert table["cisco.parse"].self_ns == 25
    assert spans.span_coverage(tree) == pytest.approx(0.7)


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(1, None, "check", 0, 100),
        _span(2, 1, "a", 10, 50),
        _span(3, 1, "b", 40, 120),  # overlaps a and outlives its parent
    ]
    assert spans.self_times(tree)[(1, 1)] == 10


def test_tracer_links_parents_and_trace_ids():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    with tracer.root("trace-1", "scenario"):
        outer()
    with tracer.root("trace-2", "scenario"):
        inner()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    first_root, second_root = by_name["scenario"]
    (outer_span,) = by_name["outer"]
    first_inner, second_inner = by_name["inner"]
    assert outer_span[2] == first_root[1]
    assert first_inner[2] == outer_span[1]
    assert second_inner[2] == second_root[1]
    assert {span[0] for span in tracer.spans} == {"trace-1", "trace-2"}


def test_patched_wraps_and_restores_every_binding():
    from repro.core import orchestrator
    from repro.topology.roles import RoleAssignment

    original_parse = orchestrator.parse_cisco
    original_roles = vars(RoleAssignment)["from_topology"]
    tracer = spans.Tracer()
    with spans.patched(spans.layer_bindings(tracer)):
        assert orchestrator.parse_cisco is not original_parse
        assert isinstance(vars(RoleAssignment)["from_topology"], classmethod)
    assert orchestrator.parse_cisco is original_parse
    assert vars(RoleAssignment)["from_topology"] is original_roles


def test_patched_rejects_a_missing_binding():
    with pytest.raises(AttributeError, match="no longer exists"):
        with spans.patched([("repro.core.orchestrator", "no_such_name",
                             lambda original: original)]):
            pass


# -- host speed scale ------------------------------------------------------------


def test_host_clock_scales_an_operation_by_its_neighbouring_readings():
    clock = hostclock.HostClock()
    clock.readings_ms = [2.0 * hostclock.REFERENCE_MS, 2.0 * hostclock.REFERENCE_MS]
    assert clock.last_scale() == pytest.approx(0.5)
    clock.readings_ms.append(hostclock.REFERENCE_MS)
    assert clock.last_scale() == pytest.approx(1.0 / 1.5)


def test_host_clock_probe_records_a_reading_and_its_time():
    clock = hostclock.HostClock()
    with pytest.raises(ValueError):
        clock.last_scale()
    clock.probe()
    clock.probe()
    assert len(clock.readings_ms) == 2
    assert clock.spent_s >= sum(clock.readings_ms) / 1000.0 > 0.0
    assert clock.last_scale() > 0.0
