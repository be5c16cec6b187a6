"""The persistent worker process: warm caches, shard journals, heartbeats.

Each worker slot runs :func:`worker_main` in its own process for the
lifetime of the scheduler — a ``repro serve`` service or one batch
``run_campaign``/``run_fuzz`` call with ``workers > 1``.  A worker
receives whole *work units* (a list of work items: campaign scenarios
or fuzz indices) over its task queue, reports back on its own result
pipe, and runs each item's ``execute()``, so the process-local
memoization caches, interned route attributes, and warm per-topology
simulation states survive across units and across campaigns.
Toggles come from the parent's snapshot at spawn; anything else an
item needs (a fuzz index's planted bugs) travels inside the item.

Durability contract: an item's journal line is appended and flushed
to the worker's shard journal *before* its completion message is
posted, so any key the scheduler saw finish is guaranteed to be on
disk — a SIGKILL can only lose the item in flight, never one that
was reported.  Shard files are opened through the campaign engine's
``_open_journal``, which repairs a crash-truncated final line whenever
it appends: a respawned worker re-attaching to its dead predecessor's
shard cannot write onto the fragment.

A daemon thread posts heartbeats (with the worker's metrics, for
``/healthz``) every ``heartbeat_s``.  It keeps beating while the main
thread hangs, so stall detection reads unit *progress* instead, and
hard death (SIGKILL, OOM) is caught by the process liveness check.
"""

from __future__ import annotations

import os
import signal
import threading
from pathlib import Path
from typing import Any, Callable, Dict

__all__ = ["worker_main"]

# Message kinds posted on the worker's result pipe.  Tuples, so the
# parent dispatches on the kind before touching the payload:
#   ("hb", slot, metrics)                liveness heartbeat + the worker's
#                                        cumulative registry snapshot
#   ("started", slot, campaign, unit)    unit accepted, now running
#   ("row", slot, campaign, unit, record)
#                                        one item journaled; record is
#                                        its CompletedScenario
#   ("unit", slot, campaign, unit)       unit finished (all rows journaled)


def _heartbeat_loop(post: Callable[[tuple], None], slot: int,
                    interval_s: float, stop: threading.Event) -> None:
    from ..obs import counters_snapshot

    while not stop.wait(interval_s):
        try:
            # The cumulative snapshot rides on every heartbeat: the
            # scheduler keeps the latest per slot for /healthz worker
            # summaries.
            post(("hb", slot, counters_snapshot()))
        except Exception:
            return  # parent gone; the process is about to be reaped


def worker_main(
    slot: int,
    task_queue,
    results,
    toggle_values: Dict[str, Any],
    heartbeat_s: float,
) -> None:
    """Run work units until the ``None`` shutdown sentinel arrives."""
    from ..core import toggles
    from ..experiments.campaign import (
        _append,
        _journal_line,
        _open_journal,
        set_campaign_lint,
    )
    from ..obs import set_tracing

    # Settings come from the scheduler only: the whole toggle registry
    # at spawn (a new toggle reaches workers automatically), the
    # campaign's trace/lint flags with every task.
    toggles.apply(toggle_values)

    # The heartbeat thread and the main thread share the pipe.
    send_lock = threading.Lock()

    def post(message: tuple) -> None:
        with send_lock:
            results.send(message)

    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(post, slot, heartbeat_s, stop),
        daemon=True,
    )
    beat.start()
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            campaign = task["campaign"]
            unit = task["unit"]
            skip = set(task.get("skip") or ())
            chaos_key = task.get("chaos")
            set_tracing(task["trace"])
            set_campaign_lint(task["lint"])
            post(("started", slot, campaign, unit))
            shard = Path(task["shard"])
            handle = _open_journal(shard, append=True)
            try:
                for item in task["items"]:
                    key = item.key()
                    if key in skip:
                        continue  # journaled by a previous attempt
                    if chaos_key is not None and key == chaos_key:
                        # Crash injection: die exactly the way the
                        # scheduler must survive — no cleanup, no
                        # goodbye, mid-unit.
                        os.kill(os.getpid(), signal.SIGKILL)
                    record = item.execute()
                    _append(handle, _journal_line(record))
                    post(("row", slot, campaign, unit, record))
            finally:
                handle.close()
            post(("unit", slot, campaign, unit))
    finally:
        stop.set()
