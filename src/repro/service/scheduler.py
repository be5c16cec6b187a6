"""The asyncio scheduler: shards, persistent workers, retries, state dir.

It runs *work items*: picklable objects with a ``key()`` and an
``execute()`` that returns a ``CompletedScenario`` whose ``row`` has an
``error`` — a campaign ``Scenario``, or a fuzz index (``FuzzTask``).

:class:`CampaignService` owns a fixed set of worker *slots*.  Each slot
is one persistent OS process (spawn start method — fork from an
asyncio/multi-threaded parent inherits locked queue-feeder locks) with
its own task queue and result pipe (a worker SIGKILLed while holding
a shared result queue's write lock would block every other worker's
reports for good).  Each
:meth:`CampaignService.step` drains results, checks worker liveness and
progress, and dispatches pending work units to idle slots — one
in-flight unit per worker, so a dead worker forfeits exactly one unit
and the scheduler knows which.  ``repro serve`` runs ``step`` from its
asyncio loop; :func:`run_waves` drives it directly over a temporary
state directory for the batch engines — ``run_campaign`` and
``run_fuzz`` with ``workers > 1``.

Everything durable lives in the state directory::

    <state_dir>/<campaign id>/spec.json        submission + materialized grid
    <state_dir>/<campaign id>/manifest.jsonl   header-only journal (grid keys)
    <state_dir>/<campaign id>/shard-NN.jsonl   one v6 journal per worker slot

Workers append finished scenarios to their shard before reporting
them, so the scheduler's in-memory progress is always a lower bound on
what is journaled.  On startup the service folds every campaign's
shards and resubmits only the missing scenarios (partially-finished
units carry a skip set) — a grid survives worker SIGKILLs *and* full
service restarts, and ``repro campaign --report <campaign dir>``
renders artifacts byte-identical to an uninterrupted batch run.
"""

from __future__ import annotations

import asyncio
import json
import logging
import multiprocessing
import multiprocessing.connection
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple,
)

from ..core import toggles
from ..experiments.campaign import (
    CampaignSummary,
    CompletedScenario,
    Scenario,
    _append,
    _journal_header,
    _open_journal,
    _scan_journal,
    summary_from_journals,
)
from ..obs import merge as metrics_merge
from ..obs import render_prometheus, sanitize_metric_name
from ..symbolic.memo import memo_totals
from .spec import CampaignSpec, shard_scenarios, spec_fingerprint
from .worker import worker_main

__all__ = ["CampaignService", "CampaignState", "WorkUnit", "run_waves"]

_LOGGER = logging.getLogger(__name__)

SPEC_FILENAME = "spec.json"
MANIFEST_FILENAME = "manifest.jsonl"

# Seconds a worker may go without reporting progress on its unit.
STALL_TIMEOUT_S = 60.0


def _metric_summary(metrics: Dict[str, float]) -> Dict[str, Any]:
    """A compact per-worker digest of a cumulative registry snapshot,
    small enough to inline in ``/healthz`` and ``repro status``."""
    cache_hits, cache_misses = memo_totals(metrics)
    return {
        "scenarios": int(metrics.get("phase.scenario.count", 0)),
        "scenario_time_s": round(
            float(metrics.get("phase.scenario.total_s", 0.0)), 3
        ),
        "routes_built": int(metrics.get("route.routes_built", 0)),
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
    }


@dataclass
class WorkUnit:
    """One contiguous grid slice: the unit of dispatch and retry."""

    index: int
    items: List[Any]
    state: str = "pending"  # pending | running | done | failed
    attempts: int = 0  # dispatches so far (1 = first run, no retry yet)
    done_keys: Set[str] = field(default_factory=set)
    slot: Optional[int] = None
    stalled: bool = False  # last forfeit was a stall kill, not a death

    @property
    def keys(self) -> List[str]:
        return [item.key() for item in self.items]

    @property
    def remaining(self) -> int:
        return sum(1 for key in self.keys if key not in self.done_keys)


@dataclass
class CampaignState:
    """One submitted campaign: its grid, units, and progress."""

    id: str
    spec: Optional[CampaignSpec]  # None for grids submitted directly
    grid: List[Any]
    shard_size: int
    directory: Path
    units: List[WorkUnit]
    resumed: int = 0  # keys recovered from shard journals at (re)load
    retries: int = 0  # resubmissions after worker death or stall
    error_keys: Set[str] = field(default_factory=set)
    # The campaign's merged registry delta: one per-scenario delta folded
    # per *distinct* key (rows are deduplicated against done_keys before
    # merging, so a unit resubmitted after a worker death cannot
    # double-count a scenario; journal-recovered rows fold in at load).
    metrics: Dict[str, float] = field(default_factory=dict)
    # Per-campaign worker settings, applied by the worker for each unit.
    trace: bool = False
    lint: bool = False

    @property
    def total(self) -> int:
        return len(self.grid)

    @property
    def completed(self) -> int:
        return sum(len(unit.done_keys) for unit in self.units)

    @property
    def state(self) -> str:
        if all(unit.state == "done" for unit in self.units):
            return "done"
        if any(unit.state in ("pending", "running") for unit in self.units):
            return "running"
        return "failed"  # nothing left to schedule, but units failed

    def status(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "state": self.state,
            "total": self.total,
            "completed": self.completed,
            "errors": len(self.error_keys),
            "resumed": self.resumed,
            "retries": self.retries,
            "shard_size": self.shard_size,
            "units": [
                {
                    "unit": unit.index,
                    "state": unit.state,
                    "size": len(unit.items),
                    "done": len(unit.done_keys),
                    "attempts": unit.attempts,
                    "slot": unit.slot,
                }
                for unit in self.units
            ],
        }


class _Slot:
    """One persistent worker: process + private task queue + liveness."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.tasks = None  # per-incarnation task queue
        self.unit: Optional[Tuple[str, int]] = None  # (campaign id, unit idx)
        self.last_seen: float = 0.0  # any message, heartbeats included
        # Dispatch, spawn, or a started/row/unit message — never a
        # heartbeat, whose thread keeps beating while the unit hangs.
        self.last_progress: float = 0.0
        self.generation: int = 0  # respawn count, for status/debugging
        # Latest cumulative registry snapshot this incarnation shipped on
        # a heartbeat (the /healthz worker summary).
        self.metrics: Dict[str, float] = {}

    @property
    def heartbeat_age_s(self) -> float:
        return max(0.0, time.monotonic() - self.last_seen)

    @property
    def queue_depth(self) -> int:
        if self.tasks is None:
            return 0
        try:
            return self.tasks.qsize()
        except (NotImplementedError, OSError):
            return 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def idle(self) -> bool:
        return self.alive and self.unit is None


class CampaignService:
    """The long-running scheduler behind ``repro serve``."""

    def __init__(
        self,
        state_dir: "Path | str",
        workers: int = 2,
        retry_limit: int = 2,
        heartbeat_s: float = 0.5,
        stall_timeout_s: Optional[float] = STALL_TIMEOUT_S,
        poll_s: float = 0.02,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.state_dir = Path(state_dir)
        self.workers = workers
        self.retry_limit = retry_limit
        self.heartbeat_s = heartbeat_s
        self.stall_timeout_s = stall_timeout_s
        self.poll_s = poll_s
        self.started_at = time.monotonic()
        self._ctx = multiprocessing.get_context("spawn")
        # Result pipe read ends.  A dead incarnation's pipe is read until
        # EOF, so nothing it reported before dying is lost to the respawn.
        self._channels: List[Any] = []
        self._slots = [_Slot(index) for index in range(workers)]
        self._campaigns: Dict[str, CampaignState] = {}
        self._stop_event: Optional[asyncio.Event] = None
        self._running = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool and reload persisted campaigns."""
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._load_campaigns()
        for slot in self._slots:
            self._spawn(slot)
        self._running = True

    async def run(self) -> None:
        """Serve until :meth:`request_stop` — the asyncio main loop."""
        self._stop_event = asyncio.Event()
        if not self._running:
            self.start()
        try:
            while not self._stop_event.is_set():
                self.step()
                try:
                    await asyncio.wait_for(
                        self._stop_event.wait(), timeout=self.poll_s
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            self.shutdown()

    def step(
        self, wait_s: float = 0.0
    ) -> List[Tuple[str, CompletedScenario]]:
        """One scheduling pass: drain worker messages (blocking up to
        ``wait_s`` for the first), reap dead or stalled workers, and
        dispatch pending units.  Returns ``(campaign id, record)`` for
        every scenario key reported for the first time."""
        fresh = self._drain_results(wait_s)
        self._reap_workers()
        self._dispatch()
        return fresh

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def shutdown(self, join_timeout_s: float = 2.0) -> None:
        """Stop workers; in-flight units stay journaled up to their last
        finished scenario and resume on the next start."""
        self._running = False
        for slot in self._slots:
            if slot.alive and slot.tasks is not None:
                try:
                    slot.tasks.put(None)
                except Exception:
                    pass
        deadline = time.monotonic() + join_timeout_s
        for slot in self._slots:
            if slot.process is None:
                continue
            slot.process.join(max(0.0, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(1.0)
            slot.process = None
        for channel in self._channels:
            channel.close()
        self._channels.clear()

    # -- submission & queries --------------------------------------------------

    def submit(self, spec: CampaignSpec) -> CampaignState:
        """Validate, persist, and enqueue a campaign; returns its state.

        Everything needed to finish the campaign after a crash is on
        disk before this returns: the grid-ordered manifest header the
        offline report merges shards under, then the materialized grid
        in ``spec.json`` (the file a restart reloads campaigns from).
        """
        grid = spec.build()  # ValueError on bad axes, same as batch CLI
        state = self.submit_grid(grid, spec=spec)
        (state.directory / SPEC_FILENAME).write_text(
            json.dumps(
                {
                    "id": state.id,
                    "spec": spec.to_dict(),
                    "shard_size": state.shard_size,
                    "grid": [asdict(scenario) for scenario in grid],
                },
                indent=2,
            )
            + "\n"
        )
        _LOGGER.info(
            "campaign %s submitted (spec %s): %d scenario(s) in %d unit(s)",
            state.id, spec_fingerprint(spec), state.total, len(state.units),
        )
        return state

    def submit_grid(
        self,
        grid: List[Any],
        spec: Optional[CampaignSpec] = None,
        trace: bool = False,
        lint: bool = False,
    ) -> CampaignState:
        """Shard ``grid`` into work units, write its manifest, and
        enqueue it.  Without ``spec.json`` the campaign is not reloaded
        after a restart — the batch engine's temporary campaigns need
        none.  ``trace``/``lint`` ride along with every unit."""
        if not grid:
            raise ValueError("campaign grid is empty")
        shard_size = (spec or CampaignSpec()).resolve_shard_size(
            len(grid), self.workers
        )
        campaign_id = self._next_id()
        directory = self.state_dir / campaign_id
        directory.mkdir(parents=True)
        manifest = _open_journal(directory / MANIFEST_FILENAME, append=False)
        try:
            _append(manifest, _journal_header(grid))
        finally:
            manifest.close()
        state = CampaignState(
            id=campaign_id,
            spec=spec,
            grid=grid,
            shard_size=shard_size,
            directory=directory,
            units=[
                WorkUnit(index=index, items=slice_)
                for index, slice_ in enumerate(
                    shard_scenarios(grid, shard_size)
                )
            ],
            trace=trace,
            lint=lint,
        )
        self._campaigns[campaign_id] = state
        return state

    def campaign(self, campaign_id: str) -> CampaignState:
        try:
            return self._campaigns[campaign_id]
        except KeyError:
            raise ValueError(f"unknown campaign {campaign_id!r}") from None

    def campaign_ids(self) -> List[str]:
        return sorted(self._campaigns)

    def status(self, campaign_id: str) -> Dict[str, Any]:
        return self.campaign(campaign_id).status()

    def workers_status(self) -> List[Dict[str, Any]]:
        return [
            {
                "slot": slot.index,
                "pid": slot.process.pid if slot.process is not None else None,
                "alive": slot.alive,
                "generation": slot.generation,
                "restarts": max(0, slot.generation - 1),
                "heartbeat_age_s": round(slot.heartbeat_age_s, 3),
                "queue_depth": slot.queue_depth,
                "unit": (
                    f"{slot.unit[0]}:{slot.unit[1]}"
                    if slot.unit is not None else None
                ),
                "metrics": _metric_summary(slot.metrics),
            }
            for slot in self._slots
        ]

    def service_health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: liveness, uptime, version, per-worker
        heartbeat ages and metric summaries."""
        from .. import __version__

        return {
            "ok": True,
            "version": __version__,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "campaigns": len(self.campaign_ids()),
            "workers": self.workers_status(),
        }

    def campaign_metrics(self) -> Dict[str, float]:
        """Every campaign's merged per-scenario registry deltas — each
        journaled scenario counted exactly once, so for settled campaigns
        these equal the journal-folded totals."""
        return metrics_merge(
            {}, *(state.metrics for state in self._campaigns.values())
        )

    def metrics_samples(self) -> List[Tuple[str, Optional[Dict[str, str]], float, str]]:
        """Everything ``GET /metrics`` exposes, as Prometheus samples."""
        now = time.monotonic()
        uptime_s = max(now - self.started_at, 1e-9)
        completed = sum(
            state.completed for state in self._campaigns.values()
        )
        errors = sum(
            len(state.error_keys) for state in self._campaigns.values()
        )
        inflight = sum(1 for slot in self._slots if slot.unit is not None)
        pending_units = sum(
            1
            for state in self._campaigns.values()
            for unit in state.units
            if unit.state == "pending"
        )
        retries = sum(state.retries for state in self._campaigns.values())
        samples: List[Tuple[str, Optional[Dict[str, str]], float, str]] = [
            ("repro_service_uptime_seconds", None, uptime_s, "gauge"),
            ("repro_service_workers", None, len(self._slots), "gauge"),
            ("repro_service_campaigns", None, len(self._campaigns), "gauge"),
            ("repro_service_inflight_units", None, inflight, "gauge"),
            ("repro_service_pending_units", None, pending_units, "gauge"),
            ("repro_scenarios_completed_total", None, completed, "counter"),
            ("repro_scenario_errors_total", None, errors, "counter"),
            ("repro_unit_retries_total", None, retries, "counter"),
            (
                "repro_scenarios_per_second",
                None,
                completed / uptime_s,
                "gauge",
            ),
        ]
        for slot in self._slots:
            labels = {"slot": str(slot.index)}
            samples.extend(
                [
                    ("repro_worker_alive", labels, 1 if slot.alive else 0,
                     "gauge"),
                    ("repro_worker_heartbeat_age_seconds", labels,
                     slot.heartbeat_age_s, "gauge"),
                    ("repro_worker_restarts_total", labels,
                     max(0, slot.generation - 1), "counter"),
                    ("repro_worker_queue_depth", labels, slot.queue_depth,
                     "gauge"),
                    ("repro_worker_inflight_units", labels,
                     1 if slot.unit is not None else 0, "gauge"),
                ]
            )
        # The campaign-folded registry series (exactly-once per scenario:
        # these match what `campaign --report <dir>` folds from journals).
        folded = self.campaign_metrics()
        for name in sorted(folded):
            kind = "gauge" if name.endswith(".max_s") else "counter"
            samples.append(
                (f"repro_{sanitize_metric_name(name)}", None, folded[name],
                 kind)
            )
        return samples

    def prometheus_text(self) -> str:
        return render_prometheus(self.metrics_samples())

    def journals(self, campaign_id: str) -> List[Path]:
        """Manifest + existing shard journals, manifest first (the
        merge order that reproduces batch-run row order)."""
        state = self.campaign(campaign_id)
        return [
            state.directory / MANIFEST_FILENAME,
            *sorted(state.directory.glob("shard-*.jsonl")),
        ]

    def result(self, campaign_id: str) -> Tuple[CampaignSummary, bool]:
        """The merged summary *right now* — streamable mid-run — plus
        whether the campaign is complete."""
        state = self.campaign(campaign_id)
        summary = summary_from_journals(self.journals(campaign_id))
        return summary, state.state == "done"

    # -- internals -------------------------------------------------------------

    def _next_id(self) -> str:
        taken = set(self._campaigns)
        if self.state_dir.exists():
            taken.update(p.name for p in self.state_dir.iterdir() if p.is_dir())
        index = len(taken) + 1
        while f"c{index:04d}" in taken:
            index += 1
        return f"c{index:04d}"

    def _shard_path(self, state: CampaignState, slot: int) -> Path:
        return state.directory / f"shard-{slot:02d}.jsonl"

    def _load_campaigns(self) -> None:
        """Reload persisted campaigns; completed scenarios (folded from
        the shard journals) are never re-run."""
        for spec_path in sorted(self.state_dir.glob(f"*/{SPEC_FILENAME}")):
            directory = spec_path.parent
            try:
                payload = json.loads(spec_path.read_text())
                spec = CampaignSpec.from_dict(payload["spec"])
                grid = [Scenario(**coords) for coords in payload["grid"]]
                shard_size = int(payload["shard_size"])
                campaign_id = payload["id"]
            except (KeyError, TypeError, ValueError) as exc:
                _LOGGER.warning(
                    "skipping unreadable campaign dir %s: %s", directory, exc
                )
                continue
            key_set = {scenario.key() for scenario in grid}
            folded: Dict[str, CompletedScenario] = {}
            for shard in sorted(directory.glob("shard-*.jsonl")):
                records, _ = _scan_journal(shard, key_set)
                folded.update(records)
            done: Set[str] = set(folded)
            errors: Set[str] = {
                key for key, record in folded.items()
                if record.row.error is not None
            }
            recovered_metrics: Dict[str, float] = metrics_merge(
                {}, *(record.metrics for record in folded.values())
            )
            units = []
            for index, slice_ in enumerate(shard_scenarios(grid, shard_size)):
                unit = WorkUnit(index=index, items=slice_)
                unit.done_keys = {
                    key for key in unit.keys if key in done
                }
                if unit.remaining == 0:
                    unit.state = "done"
                units.append(unit)
            self._campaigns[campaign_id] = CampaignState(
                id=campaign_id,
                spec=spec,
                grid=grid,
                shard_size=shard_size,
                directory=directory,
                units=units,
                resumed=len(done),
                error_keys=errors,
                metrics=recovered_metrics,
            )
            pending = sum(1 for unit in units if unit.state == "pending")
            _LOGGER.info(
                "campaign %s reloaded: %d/%d scenario(s) journaled, "
                "%d unit(s) pending", campaign_id, len(done), len(grid),
                pending,
            )

    def _spawn(self, slot: _Slot) -> None:
        """(Re)start a slot with a fresh task queue.  The old queue may
        hold a partially-consumed item from the dead incarnation, so it
        is abandoned wholesale — the in-flight unit is re-dispatched
        explicitly by the caller."""
        slot.metrics = {}  # the fresh process starts its series from zero
        slot.tasks = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        slot.process = self._ctx.Process(
            target=worker_main,
            args=(
                slot.index,
                slot.tasks,
                writer,
                toggles.snapshot(),
                self.heartbeat_s,
            ),
            daemon=True,
            name=f"repro-service-worker-{slot.index}",
        )
        slot.process.start()
        # The worker now holds the only write end, so its death reads as
        # EOF on the pipe.
        writer.close()
        self._channels.append(reader)
        slot.generation += 1
        slot.unit = None
        slot.last_seen = slot.last_progress = time.monotonic()

    def _drain_results(
        self, wait_s: float = 0.0
    ) -> List[Tuple[str, CompletedScenario]]:
        fresh: List[Tuple[str, CompletedScenario]] = []
        for message in self._receive(wait_s):
            kind, slot_index = message[0], message[1]
            slot = self._slots[slot_index]
            slot.last_seen = time.monotonic()
            if kind in ("started", "row", "unit"):
                slot.last_progress = slot.last_seen
            if kind == "hb":
                slot.metrics = message[2]
            elif kind == "row":
                _, _, campaign_id, unit_index, record = message
                state = self._campaigns.get(campaign_id)
                if state is None or not 0 <= unit_index < len(state.units):
                    continue
                unit = state.units[unit_index]
                if record.key not in unit.done_keys:
                    # First sighting of this key: fold its delta.  A row
                    # journaled by a worker that died before reporting it
                    # re-executes on resubmit and lands here exactly once
                    # — set semantics keep the count honest either way.
                    unit.done_keys.add(record.key)
                    metrics_merge(state.metrics, record.metrics)
                    fresh.append((campaign_id, record))
                if record.row.error is not None:
                    state.error_keys.add(record.key)
            elif kind == "unit":
                _, _, campaign_id, unit_index = message
                state = self._campaigns.get(campaign_id)
                if state is None or not 0 <= unit_index < len(state.units):
                    continue
                unit = state.units[unit_index]
                # Guard against a stalled-then-killed worker's stale
                # completion racing the resubmitted unit: only the
                # current owner may complete it.
                if unit.slot == slot_index:
                    unit.state = "done"
                    unit.slot = None
                    if slot.unit == (campaign_id, unit_index):
                        slot.unit = None
        return fresh

    def _receive(self, wait_s: float) -> Iterator[Tuple[Any, ...]]:
        """Every message the workers have posted, blocking up to
        ``wait_s`` for the first."""
        while self._channels:
            ready = multiprocessing.connection.wait(
                list(self._channels), timeout=wait_s
            )
            if not ready:
                return
            wait_s = 0.0  # only the first wait may block
            for channel in ready:
                try:
                    message = channel.recv()
                except (EOFError, OSError):
                    # The worker is gone and its pipe is drained, or
                    # ends in a message torn by the kill.
                    self._channels.remove(channel)
                    channel.close()
                    continue
                yield message

    def _reap_workers(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if not self._running:
                return
            if slot.process is None:
                continue
            dead = not slot.process.is_alive()
            stalled = (
                not dead
                and self.stall_timeout_s is not None
                and slot.unit is not None
                and now - slot.last_progress > self.stall_timeout_s
            )
            if not dead and not stalled:
                continue
            if stalled:
                _LOGGER.warning(
                    "worker %d made no progress for %.1fs with unit %s in "
                    "flight; killing it", slot.index,
                    now - slot.last_progress, slot.unit,
                )
                slot.process.kill()
                slot.process.join(1.0)
            forfeited = slot.unit
            _LOGGER.warning(
                "worker %d (pid %s) died%s; respawning",
                slot.index, slot.process.pid,
                f" with unit {forfeited} in flight" if forfeited else "",
            )
            self._spawn(slot)
            if forfeited is not None:
                self._forfeit(forfeited, stalled)

    def _forfeit(self, assignment: Tuple[str, int], stalled: bool) -> None:
        campaign_id, unit_index = assignment
        state = self._campaigns.get(campaign_id)
        if state is None or not 0 <= unit_index < len(state.units):
            return
        unit = state.units[unit_index]
        if unit.state != "running":
            return
        unit.slot = None
        unit.stalled = stalled
        if unit.attempts > self.retry_limit:
            unit.state = "failed"
            _LOGGER.error(
                "campaign %s unit %d failed: retry budget (%d) exhausted "
                "after %d attempt(s); %d scenario(s) of the unit are "
                "journaled", campaign_id, unit_index, self.retry_limit,
                unit.attempts, len(unit.done_keys),
            )
        else:
            unit.state = "pending"
            state.retries += 1
            _LOGGER.info(
                "campaign %s unit %d resubmitted (attempt %d of %d); "
                "%d finished scenario(s) will be skipped",
                campaign_id, unit_index, unit.attempts + 1,
                self.retry_limit + 1, len(unit.done_keys),
            )

    def _dispatch(self) -> None:
        for slot in self._slots:
            if not slot.idle:
                continue
            assignment = self._next_pending()
            if assignment is None:
                return
            state, unit = assignment
            spec = state.spec or CampaignSpec()
            payload = {
                "campaign": state.id,
                "unit": unit.index,
                # The items themselves: the worker unpickles exactly
                # what was submitted.
                "items": unit.items,
                "skip": sorted(unit.done_keys),
                "shard": str(self._shard_path(state, slot.index)),
                "chaos": (
                    spec.chaos_kill_key
                    if spec.chaos_kill_key is not None
                    and (spec.chaos_always or unit.attempts == 0)
                    and spec.chaos_kill_key not in unit.done_keys
                    else None
                ),
                "trace": state.trace,
                "lint": state.lint,
            }
            unit.state = "running"
            unit.slot = slot.index
            unit.attempts += 1
            slot.unit = (state.id, unit.index)
            slot.last_progress = time.monotonic()
            slot.tasks.put(payload)

    def _next_pending(self) -> Optional[Tuple[CampaignState, WorkUnit]]:
        for campaign_id in sorted(self._campaigns):
            state = self._campaigns[campaign_id]
            for unit in state.units:
                if unit.state == "pending":
                    return state, unit
        return None


def run_waves(
    waves: Iterable[List[Any]],
    workers: int,
    on_record: Callable[[CompletedScenario], None],
    stall_timeout_s: Optional[float] = STALL_TIMEOUT_S,
    trace: bool = False,
    lint: bool = False,
) -> List[WorkUnit]:
    """Run waves (non-empty lists) of work items on one temporary
    service, each to completion before the next is drawn — so a lazy
    ``waves`` decides when dispatch stops — passing ``on_record`` each
    record once.  Returns the units that failed on every attempt, and
    stops at the first wave that has any."""
    service: Optional[CampaignService] = None
    with tempfile.TemporaryDirectory(prefix="repro-batch-") as tmp:
        try:
            for wave in waves:
                if service is None:  # sized by the first wave
                    service = CampaignService(
                        tmp, workers=min(workers, len(wave)),
                        stall_timeout_s=stall_timeout_s,
                    )
                    service.start()
                state = service.submit_grid(wave, trace=trace, lint=lint)
                while state.state == "running":
                    for _id, record in service.step(service.poll_s):
                        on_record(record)
                failed = [
                    unit for unit in state.units if unit.state == "failed"
                ]
                if failed:
                    return failed
        finally:
            if service is not None:
                service.shutdown()
    return []
