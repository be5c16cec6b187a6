"""Unified observability layer: metrics registry, phase spans, exposition.

One substrate for every counter surface in the tree — route-datapath
stats, simulator totals, memo-cache hit rates, campaign per-scenario
deltas, service worker health — plus span tracing that renders to Chrome
trace-event JSON and a Prometheus text renderer for ``GET /metrics``.

See :mod:`repro.obs.metrics` for the registry/delta/merge semantics and
:mod:`repro.obs.tracing` for spans.
"""

from .metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    REGISTRY,
    Timer,
    counter,
    counters_snapshot,
    delta,
    gauge,
    merge,
    reset_metrics,
    timer,
)
from .prom import render_prometheus, sanitize_metric_name
from .tracing import (
    drain_events,
    set_tracing,
    span,
    tracing_enabled,
    validate_trace,
    validate_trace_file,
    write_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "REGISTRY",
    "Timer",
    "counter",
    "counters_snapshot",
    "delta",
    "drain_events",
    "gauge",
    "merge",
    "render_prometheus",
    "reset_metrics",
    "sanitize_metric_name",
    "set_tracing",
    "span",
    "timer",
    "tracing_enabled",
    "validate_trace",
    "validate_trace_file",
    "write_trace",
]
