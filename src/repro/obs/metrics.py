"""Process-wide metrics registry: counters, gauges, and timers.

Every subsystem used to keep its own ad-hoc counter dict (``route._STATS``,
``bgpsim._STATS``, per-``MemoCache`` hit/miss fields) and campaign code
hand-threaded each one into journals.  This module gives them one shared
substrate:

* :class:`Counter` — a monotonically increasing integer (events since reset).
* :class:`Gauge` — a level that goes up and down (in-flight work).
* :class:`Timer` — accumulated wall-clock observations for a phase
  (``count`` / ``total_s`` / ``max_s``); the span API in
  :mod:`repro.obs.tracing` feeds one per phase name.

All three are created through a process-wide :class:`MetricsRegistry`
(module-level ``REGISTRY`` plus the ``counter``/``gauge``/``timer``
helpers).  Two instruments with the same name are the *same object*, so a
module can publish a handle (``ROUTES_BUILT = counter("route.routes_built")``)
and other modules — or tests — can read it by name without importing
private state.

Shipping semantics are the point: workers are separate processes, each
with its own registry, so campaign/service workers measure a scenario by
``snapshot`` → work → ``snapshot`` → :func:`delta`, send the (small, flat,
JSON-safe) delta dict over the existing result pipes, and the parent
folds them with :func:`merge`.  Deltas of monotonic series subtract;
gauges are levels and are excluded from ``counters_snapshot``; ``.max_s``
keys take the *after* value in a delta and merge by ``max``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "REGISTRY",
    "Timer",
    "counter",
    "counters_snapshot",
    "delta",
    "gauge",
    "merge",
    "reset_metrics",
    "snapshot",
    "timer",
]


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A level that moves both ways (e.g. in-flight scenarios).

    Gauges are process-local state, not events: they are excluded from
    ``counters_snapshot`` (and therefore from worker deltas), and the
    test-suite hygiene fixture fails any test that leaves one nonzero.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0


class Timer:
    """Accumulated wall-clock for a named phase.

    Exposed in snapshots as three series: ``{name}.count``,
    ``{name}.total_s`` and ``{name}.max_s``.
    """

    __slots__ = ("name", "count", "total_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0


class MetricsRegistry:
    """Get-or-create home for every instrument in the process.

    Instruments live in flat dot-separated namespaces
    (``route.routes_built``, ``memo.universe-policy.hits``,
    ``phase.converge``).  A name is bound to exactly one instrument kind;
    asking for it as a different kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    def _check_free(self, name: str, want: str) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("timer", self._timers),
        ):
            if kind != want and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        got = self._counters.get(name)
        if got is not None:
            return got
        with self._lock:
            got = self._counters.get(name)
            if got is None:
                self._check_free(name, "counter")
                got = self._counters[name] = Counter(name)
            return got

    def gauge(self, name: str) -> Gauge:
        got = self._gauges.get(name)
        if got is not None:
            return got
        with self._lock:
            got = self._gauges.get(name)
            if got is None:
                self._check_free(name, "gauge")
                got = self._gauges[name] = Gauge(name)
            return got

    def timer(self, name: str) -> Timer:
        got = self._timers.get(name)
        if got is not None:
            return got
        with self._lock:
            got = self._timers.get(name)
            if got is None:
                self._check_free(name, "timer")
                got = self._timers[name] = Timer(name)
            return got

    def gauges(self) -> List[Gauge]:
        with self._lock:
            return list(self._gauges.values())

    # Snapshot/reset hold the creation lock: a worker's heartbeat thread
    # snapshots while the main thread may be registering instruments
    # (first span of a phase, a new memo cache), and iterating a dict
    # during insertion raises.

    def snapshot(self) -> Dict[str, float]:
        """Every series (counters, gauges, timer triples), zeros included."""
        out: Dict[str, float] = {}
        with self._lock:
            for c in self._counters.values():
                out[c.name] = c.value
            for g in self._gauges.values():
                out[g.name] = g.value
            for t in self._timers.values():
                out[f"{t.name}.count"] = t.count
                out[f"{t.name}.total_s"] = t.total_s
                out[f"{t.name}.max_s"] = t.max_s
        return out

    def counters_snapshot(self) -> Dict[str, float]:
        """Only the monotonic series — what :func:`delta` is defined over.

        Gauges are levels, not events; excluding them keeps worker deltas
        meaningful under merge.
        """
        out: Dict[str, float] = {}
        with self._lock:
            for c in self._counters.values():
                out[c.name] = c.value
            for t in self._timers.values():
                out[f"{t.name}.count"] = t.count
                out[f"{t.name}.total_s"] = t.total_s
                out[f"{t.name}.max_s"] = t.max_s
        return out

    def reset(self) -> None:
        """Zero every instrument (instances stay registered — published
        handles remain valid)."""
        with self._lock:
            for c in self._counters.values():
                c.reset()
            for g in self._gauges.values():
                g.reset()
            for t in self._timers.values():
                t.reset()


def _is_max_key(name: str) -> bool:
    return name.endswith(".max_s")


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """``after - before`` over monotonic snapshots, dropping zero series.

    ``.max_s`` series are not subtractive: the delta carries the *after*
    value whenever the matching ``.count`` moved (a per-window max is
    unrecoverable from two cumulative maxima, so the cumulative max is
    the honest upper bound).
    """
    out: Dict[str, float] = {}
    for name, after_value in after.items():
        before_value = before.get(name, 0)
        if _is_max_key(name):
            count_key = name[: -len(".max_s")] + ".count"
            if after.get(count_key, 0) > before.get(count_key, 0):
                out[name] = after_value
            continue
        diff = after_value - before_value
        if diff:
            out[name] = diff
    return out


def merge(
    into: Dict[str, float], *updates: Optional[Dict[str, float]]
) -> Dict[str, float]:
    """Fold delta/snapshot dicts into ``into`` in place (and return it).

    Sums every series except ``.max_s``, which merges by ``max``.
    ``None`` updates are skipped so callers can pass optional payloads.
    """
    for update in updates:
        if not update:
            continue
        for name, value in update.items():
            if _is_max_key(name):
                if value > into.get(name, 0):
                    into[name] = value
            else:
                into[name] = into.get(name, 0) + value
    return into


#: The process-wide registry.  Worker processes each get their own copy
#: (spawn/fork both re-import this module); deltas travel over queues.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def timer(name: str) -> Timer:
    return REGISTRY.timer(name)


def snapshot() -> Dict[str, float]:
    return REGISTRY.snapshot()


def counters_snapshot() -> Dict[str, float]:
    return REGISTRY.counters_snapshot()


def reset_metrics() -> None:
    REGISTRY.reset()
