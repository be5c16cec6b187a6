"""Host speed, measured with a fixed probe, to scale timings by.

The benchmark shares its host with other tenants.  The host runs in
phases of a few seconds to minutes, and one phase can be twice as fast
as another, so the same operation reads up to 2x slower in a slow phase;
no statistic over a run removes a phase that lasts the whole run.  So
an untraced pass also times a fixed *probe*: a short chunk of
pure-Python work of the program's kind (tokenizing config text, building
dicts, deep-copying a nested model) that never calls the program.  It
probes before the first operation and after each one, and scales each
operation's latency by

    REFERENCE_MS / mean(probe before it, probe after it)

which reads as "time on the reference host" (below).  A phase lasts far
longer than an operation, so the two probes see the operation's phase.
A change to the program cannot move the probe.  Probe time is never
counted as operation time.
"""

from __future__ import annotations

import copy
import gc
import time
from typing import List

#: The probe's time (ms) on the host the benchmark was built on, in a
#: fast phase: a 2-vCPU Intel Xeon VM at 2.0 GHz (Firecracker guest),
#: Python 3.11.
REFERENCE_MS = 1.0

#: Probe chunks per reading; a reading keeps the fastest.
PROBE_CHUNKS = 2

_PROBE_TEXT = "\n".join(
    line
    for index in range(120)
    for line in (
        f"router bgp 650{index % 10}",
        f" neighbor 10.{index}.0.{index % 7} remote-as 6{index % 9}000",
        f" neighbor 10.{index}.0.{index % 7} route-map RM_{index % 5}_OUT out",
        f"ip prefix-list PL_{index % 6} seq {5 * index} permit 10.{index}.0.0/16",
        f"route-map RM_{index % 5}_OUT permit {10 * (index % 4 + 1)}",
        f" match community CL_{index % 3}",
        f" set local-preference {100 + index}",
    )
)

_PROBE_MODEL = {
    f"r{index}": {
        "asn": 65000 + index,
        "neighbors": {
            f"10.{index}.0.{peer}": {"remote_as": peer, "export": f"RM_{peer}"}
            for peer in range(6)
        },
        "prefix_lists": [[f"10.{index}.{entry}.0/24", entry] for entry in range(8)],
    }
    for index in range(30)
}


def probe_work() -> int:
    """One fixed chunk of work; its result only keeps it from being idle."""
    counts: dict = {}
    for line in _PROBE_TEXT.splitlines():
        words = line.split()
        key = (words[0], words[-1])
        counts[key] = counts.get(key, 0) + len(words)
    model = copy.deepcopy(_PROBE_MODEL)
    exports = sorted(
        neighbor["export"]
        for router in model.values()
        for neighbor in router["neighbors"].values()
    )
    return len(counts) + len(exports)


class HostClock:
    """Probe readings of one pass: one before the first operation and
    one after each operation."""

    def __init__(self) -> None:
        self.readings_ms: List[float] = []
        self.spent_s = 0.0  # total probe time

    def probe(self) -> None:
        """Take one reading."""
        # A garbage collection inside a probe would time the program's
        # heap, not the host.
        collecting = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(PROBE_CHUNKS):
                started = time.perf_counter()
                probe_work()
                times.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()
        self.spent_s += sum(times)
        self.readings_ms.append(1000.0 * min(times))

    def last_scale(self) -> float:
        """The scale of the operation between the last two readings:
        below 1 in a slow phase of the host."""
        if len(self.readings_ms) < 2:
            raise ValueError("an operation needs a reading on each side")
        before, after = self.readings_ms[-2:]
        return REFERENCE_MS / ((before + after) / 2.0)
