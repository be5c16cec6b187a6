"""The metrics registry: get-or-create, snapshots, delta/merge algebra."""

import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    counter,
    counters_snapshot,
    delta,
    gauge,
    merge,
    reset_metrics,
    timer,
)


class TestRegistry:
    def test_counter_get_or_create_is_idempotent(self):
        a = counter("t.metrics.events")
        a.inc()
        a.inc(4)
        assert a.value == 5
        assert counter("t.metrics.events") is a

    def test_same_name_different_kind_raises(self):
        counter("t.metrics.kind-clash")
        with pytest.raises(ValueError, match="already registered"):
            gauge("t.metrics.kind-clash")
        with pytest.raises(ValueError, match="already registered"):
            timer("t.metrics.kind-clash")

    def test_gauge_moves_both_ways_and_is_not_a_counter_series(self):
        g = gauge("t.metrics.level")
        g.inc()
        g.inc()
        g.dec()
        assert g.value == 1.0
        assert "t.metrics.level" not in counters_snapshot()
        g.reset()

    def test_timer_snapshot_triple(self):
        t = timer("t.metrics.phase")
        t.observe(0.5)
        t.observe(1.5)
        snap = counters_snapshot()
        assert snap["t.metrics.phase.count"] == 2
        assert snap["t.metrics.phase.total_s"] == pytest.approx(2.0)
        assert snap["t.metrics.phase.max_s"] == pytest.approx(1.5)

    def test_reset_zeroes_but_keeps_handles_valid(self):
        c = counter("t.metrics.reset-me")
        c.inc(7)
        reset_metrics()
        assert c.value == 0
        assert counter("t.metrics.reset-me") is c

    def test_registry_snapshot_is_safe_under_concurrent_creation(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def churn():
            i = 0
            while not stop.is_set():
                registry.counter(f"t.churn.{i % 512}").inc()
                i += 1

        worker = threading.Thread(target=churn, daemon=True)
        worker.start()
        try:
            for _ in range(200):
                registry.counters_snapshot()
        finally:
            stop.set()
            worker.join(timeout=5)


class TestDeltaMerge:
    def test_delta_drops_zero_series(self):
        before = {"a": 3, "b": 5}
        after = {"a": 5, "b": 5, "c": 1}
        assert delta(before, after) == {"a": 2, "c": 1}

    def test_delta_max_key_takes_after_value_when_count_moved(self):
        before = {"p.count": 1, "p.total_s": 1.0, "p.max_s": 1.0}
        after = {"p.count": 2, "p.total_s": 1.5, "p.max_s": 1.0}
        out = delta(before, after)
        assert out == {"p.count": 1, "p.total_s": 0.5, "p.max_s": 1.0}

    def test_delta_max_key_dropped_when_count_unchanged(self):
        before = {"p.count": 2, "p.total_s": 1.5, "p.max_s": 1.0}
        after = {"p.count": 2, "p.total_s": 1.5, "p.max_s": 1.0}
        assert delta(before, after) == {}

    def test_merge_sums_and_maxes(self):
        into = merge(
            {},
            {"a": 1, "p.max_s": 0.5},
            {"a": 2, "p.max_s": 0.2},
            None,
            {"b": 3},
        )
        assert into == {"a": 3, "p.max_s": 0.5, "b": 3}

    def test_merge_returns_into_in_place(self):
        into = {"a": 1}
        assert merge(into, {"a": 1}) is into
        assert into == {"a": 2}

    def test_delta_merge_roundtrip_recovers_totals(self):
        # Two "workers" start from different baselines; merged deltas
        # must equal the union of their local activity.
        w1_before = {"x": 10, "p.count": 1, "p.total_s": 2.0, "p.max_s": 2.0}
        w1_after = {"x": 13, "p.count": 3, "p.total_s": 5.0, "p.max_s": 2.5}
        w2_before = {"x": 0}
        w2_after = {"x": 4}
        folded = merge(
            {}, delta(w1_before, w1_after), delta(w2_before, w2_after)
        )
        assert folded["x"] == 7
        assert folded["p.count"] == 2
        assert folded["p.total_s"] == pytest.approx(3.0)
        assert folded["p.max_s"] == pytest.approx(2.5)


class TestMigratedSurfaces:
    def test_sim_stats_keep_historical_keys(self):
        from repro.batfish.bgpsim import reset_sim_stats, sim_totals

        reset_sim_stats()
        totals = sim_totals()
        assert set(totals) == {
            "full_runs",
            "incremental_runs",
            "full_evaluations",
            "incremental_evaluations",
            "full_time_s",
            "incremental_time_s",
            "reused_entries",
            "invalidated_entries",
        }

    def test_memo_cache_counters_are_shared_by_name(self):
        from repro.symbolic.memo import MemoCache

        cache = MemoCache("t-shared")
        twin = MemoCache("t-shared")  # same name -> same counters
        snap = counters_snapshot()
        assert snap.get("memo.t-shared.hits", 0) == 0
        assert cache.hits == twin.hits == 0
