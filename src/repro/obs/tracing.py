"""Phase spans: per-phase wall-clock timers plus Chrome trace events.

``with span("converge", router="R3"):`` does two things:

* always: feeds the elapsed wall-clock into the registry timer
  ``phase.converge`` (so phase breakdowns cost one ``perf_counter`` pair
  per span, tracing on or off);
* when tracing is enabled (``set_tracing(True)`` / ``campaign --trace``):
  records a Chrome trace-event ``"ph": "X"`` complete event with
  microsecond timestamps, viewable in Perfetto / chrome://tracing.

Events accumulate in a process-local buffer; :func:`drain_events` empties
it.  Campaign workers drain after each scenario and ship the events back
with the result, so the parent writes one merged trace file covering
every process (events carry real pids/tids, so Perfetto lays each worker
out on its own track).

Timestamps are wall-clock epoch microseconds (shared basis across
processes); durations come from ``perf_counter`` (monotonic, precise).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .metrics import REGISTRY

__all__ = [
    "drain_events",
    "set_tracing",
    "span",
    "tracing_enabled",
    "validate_trace",
    "validate_trace_file",
    "write_trace",
]

_enabled = False
_events: List[Dict[str, Any]] = []
_events_lock = threading.Lock()
_local = threading.local()


def set_tracing(enabled: bool) -> None:
    """Turn trace-event capture on/off (phase timers always run)."""
    global _enabled
    _enabled = bool(enabled)


def tracing_enabled() -> bool:
    return _enabled


def _stack() -> List[str]:
    stack: Optional[List[str]] = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


@contextmanager
def span(name: str, **args: Any) -> Iterator[None]:
    """Time a phase; emit a trace event when tracing is on.

    ``args`` become the trace event's ``args`` payload (stringified, so
    arbitrary values are JSON-safe).
    """
    stack = _stack()
    stack.append(name)
    wall_us = time.time() * 1e6
    t0 = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - t0
        stack.pop()
        REGISTRY.timer(f"phase.{name}").observe(elapsed)
        if _enabled:
            event = {
                "name": name,
                "ph": "X",
                "ts": wall_us,
                "dur": elapsed * 1e6,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            }
            if args:
                event["args"] = {k: str(v) for k, v in args.items()}
            with _events_lock:
                _events.append(event)


def drain_events() -> List[Dict[str, Any]]:
    """Return and clear the buffered trace events."""
    global _events
    with _events_lock:
        drained = _events
        _events = []
    return drained


def write_trace(path: str, events: List[Dict[str, Any]]) -> None:
    """Write a Chrome trace-event JSON file (Perfetto-compatible)."""
    payload = {
        "traceEvents": sorted(events, key=lambda e: (e["pid"], e["tid"], e["ts"])),
        "displayTimeUnit": "ms",
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    os.replace(tmp, path)


def validate_trace(events: List[Dict[str, Any]]) -> Tuple[int, int]:
    """Check well-formedness and nesting; return ``(n_events, n_tracks)``.

    Within each ``(pid, tid)`` track, complete events must either nest
    (one interval contains the other) or not overlap — the invariant a
    synchronous span stack guarantees and trace viewers assume.  Raises
    ``ValueError`` on the first violation.
    """
    tracks: Dict[Tuple[Any, Any], List[Tuple[float, float, str]]] = {}
    for i, event in enumerate(events):
        for field in ("name", "ph", "ts", "dur", "pid", "tid"):
            if field not in event:
                raise ValueError(f"event {i} missing field {field!r}: {event}")
        if event["ph"] != "X":
            raise ValueError(f"event {i} has unsupported phase {event['ph']!r}")
        key = (event["pid"], event["tid"])
        start = float(event["ts"])
        end = start + float(event["dur"])
        tracks.setdefault(key, []).append((start, end, event["name"]))
    for key, intervals in tracks.items():
        # Parents sort before their children: by start ascending, then by
        # end *descending* so an enclosing span that shares a start
        # timestamp with its first child is opened first.
        intervals.sort(key=lambda iv: (iv[0], -iv[1]))
        open_stack: List[Tuple[float, float, str]] = []
        for start, end, name in intervals:
            while open_stack and open_stack[-1][1] <= start:
                open_stack.pop()
            if open_stack and end > open_stack[-1][1]:
                parent = open_stack[-1]
                raise ValueError(
                    f"track {key}: span {name!r} [{start}, {end}] overlaps "
                    f"{parent[2]!r} [{parent[0]}, {parent[1]}] without nesting"
                )
            open_stack.append((start, end, name))
    return len(events), len(tracks)


def validate_trace_file(path: str) -> Tuple[int, int]:
    """Load + validate a trace file written by :func:`write_trace`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path}: no traceEvents list")
    return validate_trace(events)


def _main(argv: Optional[List[str]] = None) -> int:
    import sys

    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m repro.obs.tracing TRACE.json [...]")
        return 2
    for path in paths:
        n_events, n_tracks = validate_trace_file(path)
        print(f"{path}: OK ({n_events} events, {n_tracks} tracks)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI smoke
    raise SystemExit(_main())
