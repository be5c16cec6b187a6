"""In-memory span tracing around the program's public layer functions.

The traced run replaces each layer function with a wrapper that records
a span (layer name, start, end, parent span, trace id) and calls the
original.  A name is patched where its caller looks it up: the
orchestrator binds ``parse_cisco`` at import, so the patch goes on
``repro.core.orchestrator.parse_cisco``, not on ``repro.cisco``.
Nothing in the program changes; :func:`patched` restores every name.

Spans stay in memory and are written once, as a Chrome trace-event
file, when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# One finished span: (trace_id, span_id, parent_id, name, start_ns,
# end_ns, note).  Ids are (pid, n) pairs.
Span = Tuple[Optional[str], Tuple[int, int], Optional[Tuple[int, int]], str,
             int, int, Optional[int]]

#: Layer name -> the (module, attribute path) bindings that carry it.
#: Every binding a scenario or check reaches is listed, so a layer's
#: calls are complete; a binding that disappears fails the install.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "cisco.parse": (
        ("repro.core.orchestrator", "parse_cisco"),
        ("repro.batfish.snapshot", "parse_cisco"),
        ("repro.sampleconfigs", "parse_cisco"),
    ),
    "llm.render": (("repro.llm.faults", "DraftState.render"),),
    "llm.send": (("repro.llm.simulated", "SimulatedGPT4.send"),),
    "llm.catalog": (
        ("repro.llm.synthesis_model", "synthesis_fault_catalog"),
        ("repro.experiments.no_transit", "synthesis_fault_catalog"),
        ("repro.llm.translation_model", "translation_fault_catalog"),
        ("repro.experiments.translation", "translation_fault_catalog"),
    ),
    "juniper.parse": (("repro.core.orchestrator", "parse_juniper"),),
    "campion.compare": (("repro.core.orchestrator", "compare_configs"),),
    "topology.roles": (
        ("repro.topology.roles", "RoleAssignment.from_topology"),
    ),
    "topology.reference": (
        ("repro.llm.synthesis_model", "build_reference_configs"),
        ("repro.topology.reference", "build_reference_configs"),
    ),
    "topology.generate": (
        ("repro.experiments.no_transit", "generate_network"),
        ("repro.experiments.no_transit", "generate_star_network"),
    ),
    "topology.verify": (("repro.core.orchestrator", "verify_topology"),),
    "lightyear.local_verify": (
        ("repro.core.orchestrator", "verify_invariants"),
    ),
    "core.compose": (("repro.core.composer", "Composer.compose"),),
    "core.modularize": (
        ("repro.core.modularizer", "Modularizer.router_task_prompt"),
        ("repro.core.modularizer", "Modularizer.local_invariants"),
    ),
    "analysis.lint": (("repro.analysis", "analyze_configs"),),
    "lightyear.global_check": (
        ("repro.core.orchestrator", "check_global_no_transit"),
        ("repro.lightyear.compose", "check_global_no_transit"),
    ),
    "batfish.state": (
        ("repro.batfish.bgpsim", "SimulationState.resimulate"),
        ("repro.batfish.bgpsim", "SimulationState.converge"),
    ),
    "batfish.converge": (
        ("repro.batfish.bgpsim", "BgpSimulation.run"),
        ("repro.batfish.bgpsim", "BgpSimulation.run_worklist"),
    ),
}

#: Layers whose spans note a checksum of their first argument (the
#: config text), so the table can report distinct inputs per call.
KEYED_LAYERS = frozenset({"cisco.parse"})

#: Root span names: one trace per scenario or check, plus set-up.
ROOT_OPS = frozenset({"scenario", "check"})


class Tracer:
    """Records spans in memory, one stack per process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Tuple[int, int]] = []
        self._trace_id: Optional[str] = None
        self._counter = 0

    def _open(self, name: str) -> Tuple[Tuple[int, int], Optional[Tuple[int, int]]]:
        self._counter += 1
        span_id = (os.getpid(), self._counter)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    @contextmanager
    def root(self, trace_id: str, name: str) -> Iterator[None]:
        """Open a root span that starts a new trace."""
        outer = self._trace_id
        self._trace_id = trace_id
        span_id, parent = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((trace_id, span_id, parent, name, start, end, None))
            self._trace_id = outer

    def wrap(self, layer: str, function: Callable) -> Callable:
        """``function`` wrapped to record one ``layer`` span per call."""
        keyed = layer in KEYED_LAYERS
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id, parent = tracer._open(layer)
            start = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                note = None
                if keyed and args and isinstance(args[0], str):
                    note = zlib.crc32(args[0].encode("utf-8"))
                tracer.spans.append(
                    (tracer._trace_id, span_id, parent, layer, start, end, note)
                )

        return traced


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attribute not in vars(owner):
        raise AttributeError(f"{module_name}.{path} no longer exists")
    return owner, attribute


@contextmanager
def patched(
    bindings: Sequence[Tuple[str, str, Callable[[Callable], Callable]]],
) -> Iterator[None]:
    """Replace each ``(module, attribute path, make_wrapper)`` binding
    with ``make_wrapper(original)``; restore all of them on exit.

    Class attributes keep their descriptor kind, so a classmethod stays
    a classmethod around the wrapped function.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for module_name, path, make_wrapper in bindings:
            owner, attribute = _resolve(module_name, path)
            raw = vars(owner)[attribute]
            if isinstance(raw, (classmethod, staticmethod)):
                replacement: object = type(raw)(make_wrapper(raw.__func__))
            else:
                replacement = make_wrapper(raw)
            saved.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)


def layer_bindings(
    tracer: Tracer,
) -> List[Tuple[str, str, Callable[[Callable], Callable]]]:
    """Every :data:`LAYERS` binding, wrapped for ``tracer``."""
    return [
        (module_name, path, functools.partial(tracer.wrap, layer))
        for layer, targets in LAYERS.items()
        for module_name, path in targets
    ]


# -- analysis ------------------------------------------------------------------


def _union_ns(intervals: List[Tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    covered = 0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _child_intervals(
    spans: Sequence[Span],
) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
    """Span id -> the (start, end) intervals of its direct children."""
    children: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for span in spans:
        if span[2] is not None:
            children.setdefault(span[2], []).append((span[4], span[5]))
    return children


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], int]:
    """Each span's duration minus the part its child spans cover (ns)."""
    children = _child_intervals(spans)
    return {
        span[1]: (span[5] - span[4])
        - _union_ns(children.get(span[1], []), span[4], span[5])
        for span in spans
    }


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    distinct: int = 0

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6


def layer_table(spans: Sequence[Span]) -> Dict[str, LayerStats]:
    """Calls, self time, inclusive time and distinct inputs per span name."""
    own = self_times(spans)
    table: Dict[str, LayerStats] = {}
    notes: Dict[str, set] = {}
    for span in spans:
        stats = table.setdefault(span[3], LayerStats())
        stats.calls += 1
        stats.self_ns += own[span[1]]
        stats.total_ns += span[5] - span[4]
        if span[6] is not None:
            notes.setdefault(span[3], set()).add(span[6])
    for name, seen in notes.items():
        table[name].distinct = len(seen)
    return table


def span_coverage(spans: Sequence[Span]) -> float:
    """Share of root-operation time that lies inside named layer spans."""
    children = _child_intervals(spans)
    root_ns = 0
    covered_ns = 0
    for span in spans:
        if span[3] in ROOT_OPS:
            root_ns += span[5] - span[4]
            covered_ns += _union_ns(children.get(span[1], []), span[4], span[5])
    return covered_ns / root_ns if root_ns else 0.0


def root_op_ns(spans: Sequence[Span]) -> int:
    """Total duration of the scenario/check root spans."""
    return sum(span[5] - span[4] for span in spans if span[3] in ROOT_OPS)


def write_chrome_trace(path: str, spans: Sequence[Span]) -> None:
    """Write spans as a Chrome trace-event file (loads in Perfetto)."""

    def label(span_id: Optional[Tuple[int, int]]) -> Optional[str]:
        return None if span_id is None else f"{span_id[0]}.{span_id[1]}"

    events = [
        {
            "name": name,
            "ph": "X",
            "ts": start / 1000.0,
            "dur": (end - start) / 1000.0,
            "pid": span_id[0],
            "tid": span_id[0],
            "args": {
                "trace_id": trace_id,
                "span_id": label(span_id),
                "parent_id": label(parent),
            },
        }
        for trace_id, span_id, parent, name, start, end, _note in spans
    ]
    events.sort(key=lambda event: (event["pid"], event["ts"]))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")
