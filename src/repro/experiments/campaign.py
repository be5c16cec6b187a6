"""Streaming, resumable scenario-campaign engine.

The paper closes by noting that "much further testing in more complex
use cases is needed".  This module industrializes that testing: it
enumerates a scenario grid — topology family × size × seed ×
behavior profile × IIP ablation — and executes every scenario through
the full Verified Prompt Programming loop, inline or — with
``workers > 1`` — on the campaign service's scheduler
(:class:`repro.service.scheduler.CampaignService`), the same engine
behind ``repro serve``.  Each scenario is seeded deterministically from
its own coordinates, so a campaign's results are identical whether it
runs serially or on any number of workers.

Execution streams: as each scenario completes, its result is appended
(and flushed) to a JSONL *campaign journal*, so a crashed or killed
grid loses at most the scenarios in flight, and a parallel run retries
a unit whose worker died or hung before giving up on it.  The final
:class:`CampaignSummary` is reconstructed by folding over the journal,
and ``resume=True`` skips scenario keys the journal already holds — an
interrupted campaign picks up where it left off and produces final
JSON/CSV summaries byte-identical to an uninterrupted run.  To keep
that guarantee at any worker count, the written summaries contain only
deterministic fields; wall-clock timings, cache statistics, and
BGP-simulation accounting live in the journal and the rendered report.

Each worker process keeps warm per-topology simulation states (see
:mod:`repro.batfish.bgpsim`), so consecutive scenarios of the same
family × size re-converge only the routers whose final configs differ
from the previous scenario's; the engine reports full vs incremental
convergence counts alongside the symbolic-cache hit rate.
:func:`summary_from_journals` rebuilds a summary offline from any
journal (the ``repro campaign --report`` mode) — with a v2 journal the
artifacts are byte-identical to the live run's.
"""

from __future__ import annotations

import csv
import json
import math
import time
import traceback
import zlib
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TextIO,
)

from ..core import DEFAULT_IIP_IDS
from ..llm import BehaviorProfile
from ..obs import (
    counters_snapshot,
    delta as metrics_delta,
    drain_events,
    gauge,
    merge as metrics_merge,
    set_tracing,
    span,
    tracing_enabled,
    write_trace,
)
from ..symbolic.memo import MemoCache, memo_totals
from ..topology.families import FAMILIES

__all__ = [
    "CampaignInterrupted",
    "CampaignStalled",
    "CampaignSummary",
    "CompletedScenario",
    "FamilySummary",
    "JOURNAL_VERSION",
    "PROFILES",
    "Scenario",
    "ScenarioResult",
    "UnpicklableWorkItem",
    "build_grid",
    "execute_scenario",
    "fold_journal",
    "run_campaign",
    "run_scenario",
    "scenario_seed",
    "service_journals",
    "set_campaign_lint",
    "summary_from_journals",
    "topology_seed",
]

# v2 added the grid's scenario keys to the header; v3 added the
# role/topo scenario axes (and their per-role verdict counts in each
# result row); v4 adds the role-placement axis (``place``) to scenario
# keys/rows and the route-datapath counters to each journal record;
# v5 adds the full traceback (``trace``) to error rows; v6 adds each
# record's flat metrics delta (``metrics`` — the repro.obs registry
# series the scenario moved); v7 adds the static-analysis columns
# (``lint_findings``/``lint_high``) to rows of ``--lint`` campaigns
# (absent — not null — on rows of campaigns that did not lint); v8
# drops the flat named counters (``cache_hits`` … ``routes_reused``)
# that duplicated ``metrics``.  Folding stays bidirectionally tolerant:
# unknown row fields are dropped, missing ones take their dataclass
# defaults.
JOURNAL_VERSION = 8

# Named behavior profiles a scenario can select.  Names (not objects)
# travel through the grid so scenarios stay trivially picklable.
PROFILES: Dict[str, BehaviorProfile] = {
    "default": BehaviorProfile(),
    "always-fix": BehaviorProfile.always_fix(),
    "sloppy": BehaviorProfile(
        fix=0.55, no_change=0.25, fix_with_new_error=0.12,
        fix_with_regression=0.08,
    ),
}


# -- the campaign lint axis ----------------------------------------------------
#
# With linting on, every successful scenario also runs the static
# policy analyzer over the final synthesized drafts and records the
# finding counts in its result row (journal v7).  A module global —
# not a Scenario field — so scenario keys (and therefore resume
# identity) are unchanged; parallel workers receive it in each task.

_LINT_ENABLED = False

# Lint counts of final networks, shared by every scenario in the
# process: all seeds of a hand-shaped cell share one network, and most
# final drafts are clean, so one grid lints few distinct inputs.  Keyed
# on the topology's identity and each router's draft key; each entry
# holds the topology and the pristines so no id is reused while it
# lives.
_LINT_MEMO = MemoCache("campaign-lint", max_entries=32)


def set_campaign_lint(enabled: bool) -> None:
    """Enable per-scenario static analysis of the synthesized drafts."""
    global _LINT_ENABLED
    _LINT_ENABLED = bool(enabled)


@dataclass(frozen=True)
class Scenario:
    """One cell of the campaign grid.

    ``roles`` is a role spec (``c2i3h2`` — customers, ISPs, homes per
    ISP, optionally ``pN`` peers), ``topo`` a knob string
    (``p=0.4`` / ``alpha=0.5,beta=0.7``), and ``place`` a role-placement
    strategy (``degree`` pins customers to the lowest-degree routers);
    all three are ``default`` for the hand-shaped families, which have
    a fixed layout.
    """

    family: str
    size: int
    seed: int  # seed *index* within the campaign, not the RNG seed
    profile: str = "default"
    iips: bool = True
    roles: str = "default"
    topo: str = "default"
    place: str = "default"

    def key(self) -> str:
        return (
            f"{self.family}:{self.size}:{self.seed}:{self.profile}:"
            f"{'iips' if self.iips else 'noiips'}:{self.roles}:{self.topo}:"
            f"{self.place}"
        )

    def execute(self) -> "CompletedScenario":
        """Run this scenario as a campaign-service work item."""
        return execute_scenario(self)


@dataclass(frozen=True)
class ScenarioResult:
    """One ScalingPoint-style row: scenario coordinates + measurements.

    ``roles_ok``/``roles_total`` summarize the per-role no-transit
    verdicts of the final global check (``CUSTOMER_2 ok, ISP_3
    VIOLATED, ...``); both stay 0 for hub-policy topologies, which
    carry no role assignment.
    """

    family: str
    size: int
    seed: int
    profile: str
    iips: bool
    automated_prompts: int = 0
    human_prompts: int = 0
    leverage: Optional[float] = None  # None encodes "no human prompts"
    verified: bool = False
    global_ok: bool = False
    duration_s: float = 0.0
    error: Optional[str] = None
    roles: str = "default"
    topo: str = "default"
    roles_ok: int = 0
    roles_total: int = 0
    place: str = "default"
    # Full traceback for error rows (journal-only, like duration_s:
    # stripped from summary JSON/CSV).  None on success and on rows
    # folded from pre-v5 journals.
    trace: Optional[str] = None
    # Static-analysis counts over the final synthesized drafts (v7,
    # ``--lint`` campaigns only).  None — and absent from summary
    # JSON — when the campaign did not lint, so non-lint summaries
    # stay byte-identical to v6.
    lint_findings: Optional[int] = None
    lint_high: Optional[int] = None

    def render(self) -> str:
        if self.error is not None:
            return (
                f"{self.family:>8} n={self.size:<2} seed={self.seed} "
                f"ERROR: {self.error}"
            )
        leverage = "inf" if self.leverage is None else f"{self.leverage:.1f}"
        line = (
            f"{self.family:>8} n={self.size:<2} seed={self.seed} "
            f"profile={self.profile:<10} iips={'y' if self.iips else 'n'}  "
            f"automated={self.automated_prompts:>3} "
            f"human={self.human_prompts:>2} leverage={leverage:>5}X "
            f"verified={self.verified}"
        )
        if self.roles != "default" or self.topo != "default":
            line += f" roles={self.roles}"
            if self.topo != "default":
                line += f" topo={self.topo}"
        if self.place != "default":
            line += f" place={self.place}"
        if self.roles_total:
            line += f" roles_ok={self.roles_ok}/{self.roles_total}"
        if self.lint_findings is not None:
            line += f" lint={self.lint_findings}({self.lint_high} high)"
        return line


def scenario_seed(scenario: Scenario) -> int:
    """A deterministic RNG seed derived from the scenario coordinates.

    Uses CRC32 (stable across processes and interpreter runs, unlike
    ``hash``) so parallel and serial campaigns agree bit-for-bit.
    """
    return zlib.crc32(scenario.key().encode("utf-8"))


def topology_seed(scenario: Scenario) -> int:
    """The seed that picks a seeded family's graph for this scenario.

    Derived from the topology-shaping coordinates only — *not* the
    behavior profile, the IIP flag, or the placement strategy (which
    relocates roles on the sampled graph without re-sampling it) — so
    every profile/ablation/placement cell of one (family, size, seed,
    roles, topo) point runs on the same graph and the workers' warm
    simulation states stay reusable.
    """
    material = (
        f"{scenario.family}:{scenario.size}:{scenario.seed}:"
        f"{scenario.roles}:{scenario.topo}"
    )
    return zlib.crc32(material.encode("utf-8"))


def build_grid(
    families: Sequence[str],
    sizes: Sequence[int],
    seeds: int,
    profiles: Sequence[str] = ("default",),
    iip_ablation: bool = False,
    roles: Sequence[str] = ("default",),
    topos: Sequence[str] = ("default",),
    places: Sequence[str] = ("default",),
) -> List[Scenario]:
    """Enumerate the scenario grid in deterministic order.

    ``roles``, ``topos``, and ``places`` add the role-spec,
    topology-knob, and role-placement axes; non-default values require
    every family in the grid to be seeded (random/waxman) — the
    hand-shaped families have a fixed layout, and silently ignoring an
    axis would fake coverage.
    """
    from ..topology.families import SEEDED_FAMILIES, check_size
    from ..topology.randomnet import (
        _check_knobs,
        coerce_placement,
        parse_topo_params,
    )
    from ..topology.roles import RoleSpec

    for family in families:
        if family not in FAMILIES:
            known = ", ".join(sorted(FAMILIES))
            raise ValueError(f"unknown family {family!r} (known: {known})")
    for profile in profiles:
        if profile not in PROFILES:
            known = ", ".join(sorted(PROFILES))
            raise ValueError(f"unknown profile {profile!r} (known: {known})")
    for family in families:
        for size in sizes:
            check_size(family, size)
    unseeded = sorted(set(families) - SEEDED_FAMILIES)
    for spec in roles:
        parsed = RoleSpec.coerce(spec)
        if parsed is None:
            continue
        if unseeded:
            raise ValueError(
                f"role spec {spec!r} requires seeded families "
                f"(random/waxman); grid also contains {', '.join(unseeded)}"
            )
        for size in sizes:
            if parsed.attachments > size:
                raise ValueError(
                    f"role spec {spec!r} needs {parsed.attachments} border "
                    f"routers but the grid includes size {size}"
                )
    for knobs in topos:
        parsed_knobs = parse_topo_params(knobs)
        if not parsed_knobs:
            continue
        if unseeded:
            raise ValueError(
                f"topology knobs {knobs!r} require seeded families "
                f"(random/waxman); grid also contains {', '.join(unseeded)}"
            )
        for family in families:
            # Knobs are family-specific (p vs alpha/beta): reject a
            # grid pairing them with the wrong family here, instead of
            # fanning out scenarios that can only produce error rows.
            _check_knobs(family, parsed_knobs)
    normalized_places = []
    for place in places:
        # Validates the name and canonicalizes spellings: "seeded",
        # "", and None are the default strategy, so they normalize to
        # one "default" cell (duplicates collapse) instead of fanning
        # the identical placement out under distinct scenario keys.
        # Non-default placements need seeded families, same as the
        # other topology-shaping axes.
        strategy = coerce_placement(place)
        if strategy == "seeded":
            strategy = "default"
        elif unseeded:
            raise ValueError(
                f"placement {place!r} requires seeded families "
                f"(random/waxman); grid also contains {', '.join(unseeded)}"
            )
        if strategy not in normalized_places:
            normalized_places.append(strategy)
    iip_flags = (True, False) if iip_ablation else (True,)
    return [
        Scenario(
            family=family,
            size=size,
            seed=seed,
            profile=profile,
            iips=iips,
            roles=spec or "default",
            topo=knobs or "default",
            place=place or "default",
        )
        for family in families
        for size in sizes
        for seed in range(seeds)
        for profile in profiles
        for iips in iip_flags
        for spec in roles
        for knobs in topos
        for place in normalized_places
    ]


def run_scenario(scenario: Scenario, network=None) -> ScenarioResult:
    """Execute one scenario through the full synthesis loop.

    ``network`` is an optional pre-materialized network for the same
    coordinates; without it the network is regenerated here from the
    scenario coordinates — generation is byte-deterministic, so both
    paths run on identical configs.

    Never raises: failures come back as error rows so one broken
    scenario cannot take down a whole campaign (or its worker).
    """
    from .no_transit import run_no_transit_experiment

    started = time.perf_counter()
    try:
        experiment = run_no_transit_experiment(
            router_count=scenario.size,
            seed=scenario_seed(scenario),
            iip_ids=DEFAULT_IIP_IDS if scenario.iips else (),
            profile=PROFILES[scenario.profile],
            family=scenario.family,
            roles=scenario.roles,
            topo=scenario.topo,
            topology_seed=topology_seed(scenario),
            place=scenario.place,
            network=network,
        )
    except Exception as exc:
        return ScenarioResult(
            family=scenario.family,
            size=scenario.size,
            seed=scenario.seed,
            profile=scenario.profile,
            iips=scenario.iips,
            duration_s=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}",
            roles=scenario.roles,
            topo=scenario.topo,
            place=scenario.place,
            trace=traceback.format_exc(),
        )
    log = experiment.result.prompt_log
    leverage = log.leverage()
    global_check = experiment.result.global_check
    verdicts = (
        global_check.role_verdicts if global_check is not None else {}
    )
    lint_findings: Optional[int] = None
    lint_high: Optional[int] = None
    if _LINT_ENABLED:
        lint_findings, lint_high = _lint_drafts(experiment)
    return ScenarioResult(
        family=scenario.family,
        size=scenario.size,
        seed=scenario.seed,
        profile=scenario.profile,
        iips=scenario.iips,
        automated_prompts=log.automated,
        human_prompts=log.human,
        leverage=None if math.isinf(leverage) else leverage,
        verified=experiment.result.verified,
        global_ok=global_check.holds if global_check is not None else False,
        duration_s=time.perf_counter() - started,
        roles=scenario.roles,
        topo=scenario.topo,
        roles_ok=sum(1 for verdict in verdicts.values() if verdict),
        roles_total=len(verdicts),
        place=scenario.place,
        lint_findings=lint_findings,
        lint_high=lint_high,
    )


def _lint_drafts(experiment) -> Tuple[Optional[int], Optional[int]]:
    """Static-analysis counts over the final synthesized drafts.

    Analyzes whatever drafts exist (a router whose chat never produced
    one is skipped; the analyzer tolerates partial config sets) and
    swallows analysis failures into ``(None, None)`` — linting is an
    auxiliary measurement and must not turn a completed scenario into
    an error row.  A draft no IR fault edits is analyzed as its shared
    pristine, which the analyzer only reads.
    """
    from ..analysis import analyze_configs
    from ..obs import counter

    try:
        topology = experiment.network.topology
        drafts = {}
        for name, model in experiment.models.items():
            try:
                drafts[name] = model.draft
            except RuntimeError:  # chat never produced a draft
                continue
        if not drafts:
            return None, None
        key = (
            id(topology),
            tuple((name, drafts[name].key) for name in sorted(drafts)),
        )
        hit, entry = _LINT_MEMO.lookup(key)
        if hit:
            return entry[2]
        configs = {name: draft.shared_config() for name, draft in drafts.items()}
        texts = {name: draft.render() for name, draft in drafts.items()}
        report = analyze_configs(configs, topology=topology, texts=texts)
    except Exception:
        counter("analysis.campaign_errors").inc()
        return None, None
    counts = (len(report), report.high)
    pinned = tuple(draft.pristine for draft in drafts.values())
    _LINT_MEMO.store(key, (topology, pinned, counts))
    return counts


@dataclass(frozen=True)
class CompletedScenario:
    """One journal record: a result plus per-scenario metric accounting.

    ``metrics`` is the flat :mod:`repro.obs` registry delta the scenario
    produced (cache traffic per cache, full/incremental convergences,
    route-datapath counters, phase timers).  These numbers are
    operational (they depend on what the worker process happened to
    have cached or converged already), so they live here and in the
    journal — never in the deterministic summary outputs.  ``spans``
    carries the scenario's Chrome trace events when tracing is on —
    live-run payload only, never journaled.
    """

    key: str
    row: ScenarioResult
    metrics: Dict[str, float] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)


#: Scenarios currently executing in this process.  A level, not an
#: event count: it must return to zero when the campaign is idle (the
#: test suite's metrics-hygiene fixture enforces it).
_INFLIGHT = gauge("campaign.inflight_scenarios")


def execute_scenario(scenario: Scenario, network=None) -> CompletedScenario:
    """Run one scenario; measure the registry delta it produced —
    symbolic-cache traffic per cache, BGP-simulation accounting (full vs
    incremental convergences against the worker's warm per-topology
    simulation states), route-datapath traffic (builder freezes vs
    no-change reuses), and per-phase wall-clock.

    ``network`` is passed through to :func:`run_scenario`."""
    before = counters_snapshot()
    _INFLIGHT.inc()
    try:
        with span("scenario", key=scenario.key()):
            row = run_scenario(scenario, network)
    finally:
        _INFLIGHT.dec()
    metrics = metrics_delta(before, counters_snapshot())
    spans = drain_events() if tracing_enabled() else []
    return CompletedScenario(
        key=scenario.key(), row=row, metrics=metrics, spans=spans
    )


# -- the campaign journal ------------------------------------------------------


def _journal_header(grid: Sequence[Scenario]) -> str:
    return json.dumps(
        {
            "kind": "campaign",
            "version": JOURNAL_VERSION,
            "scenarios": len(grid),
            # The grid's keys, in grid order: lets --report rebuild the
            # summary with rows ordered exactly as a live run orders
            # them, no matter the completion order in the journal body.
            "keys": [scenario.key() for scenario in grid],
        },
        sort_keys=True,
    )


def _journal_line(completed: CompletedScenario) -> str:
    row = asdict(completed.row)
    if row.get("lint_findings") is None:
        # v7 contract: the lint columns are absent — not null — on rows
        # of campaigns that did not lint, keeping unlinted journals
        # row-shape-identical to v6.
        row.pop("lint_findings", None)
        row.pop("lint_high", None)
    record = {"kind": "result", "key": completed.key, "row": row}
    if completed.metrics:
        # The full registry delta (v6); trace spans are deliberately
        # NOT journaled — they are live-run payload only.
        record["metrics"] = completed.metrics
    return json.dumps(record, sort_keys=True)


def _append(handle: TextIO, line: str) -> None:
    handle.write(line + "\n")
    handle.flush()


def _repair_trailing_newline(path: Path) -> None:
    """Terminate a line truncated by a crash so appended records start
    on their own line (the fold already skips the malformed fragment)."""
    with path.open("rb+") as handle:
        handle.seek(0, 2)
        if handle.tell() == 0:
            return
        handle.seek(-1, 2)
        if handle.read(1) != b"\n":
            handle.write(b"\n")


def _open_journal(path: Path, append: bool) -> TextIO:
    """Open a journal for writing.

    Appending to an existing file *always* repairs a crash-truncated
    final line first — the repair is part of opening, not a courtesy of
    individual call sites, so no append path (resume, stale-grid
    header, service shard re-attach) can write its first record onto
    the fragment the previous crash left behind.
    """
    if append and path.exists():
        _repair_trailing_newline(path)
    return path.open("a" if append else "w")


# Hoisted out of the fold loop: per-record dataclass reflection on a
# million-row journal is pure overhead — the known field set only
# changes when ScenarioResult itself does.
_RESULT_FIELDS = frozenset(spec.name for spec in fields(ScenarioResult))


def _record_metrics(record: dict) -> Dict[str, float]:
    """A journal record's metrics delta (its numeric series only)."""
    raw_metrics = record.get("metrics")
    if not isinstance(raw_metrics, dict):
        return {}
    return {
        name: value
        for name, value in raw_metrics.items()
        if isinstance(name, str) and isinstance(value, (int, float))
    }


def _journal_records(path: "Path | str") -> Iterator[dict]:
    """Every JSON-object line of a journal, in file order.

    Tolerant by design: a missing file reads as empty, and blank or
    malformed lines (e.g. a line truncated by the crash that the
    journal exists to survive) and non-object lines are skipped.
    """
    target = Path(path)
    if not target.exists():
        return
    with target.open() as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # blank, or torn by a crash
            if isinstance(record, dict):
                yield record


def _scan_journal(
    path: "Path | str", key_set: "Optional[set]" = None
) -> "Tuple[Dict[str, CompletedScenario], Optional[List[str]]]":
    """One pass over a journal: its completed records (optionally
    restricted to a grid's scenario keys) *and* the last header's grid
    keys — so callers needing both never read the file twice.

    Tolerant by design (see :func:`_journal_records`), and a key
    journaled twice keeps its latest record.
    """
    completed: Dict[str, CompletedScenario] = {}
    header_keys: Optional[List[str]] = None
    known = _RESULT_FIELDS
    for record in _journal_records(path):
        kind = record.get("kind")
        if kind == "campaign":
            # Resuming a journal with a different grid appends a fresh
            # header, so the *last* header describes the grid that owns
            # the journal (None for a header without keys).
            candidate = record.get("keys")
            header_keys = (
                candidate
                if isinstance(candidate, list)
                and all(isinstance(key, str) for key in candidate)
                else None
            )
            continue
        if kind != "result":
            continue
        key = record.get("key")
        row_fields = record.get("row")
        if not isinstance(key, str) or not isinstance(row_fields, dict):
            continue
        if key_set is not None and key not in key_set:
            continue
        # Tolerate journals from other versions: older rows simply lack
        # newer defaulted fields (e.g. pre-v5 ``trace``), newer rows may
        # carry fields this build does not know.
        try:
            completed[key] = CompletedScenario(
                key=key,
                row=ScenarioResult(**{
                    name: value
                    for name, value in row_fields.items()
                    if name in known
                }),
                metrics=_record_metrics(record),
            )
        except TypeError:
            continue  # a row missing a required field
    return completed, header_keys


def fold_journal(path: "Path | str") -> Dict[str, CompletedScenario]:
    """Reconstruct completed scenarios by folding over a journal."""
    return _scan_journal(path)[0]


def _summarize(
    ordered: List[CompletedScenario],
    *,
    workers: int,
    duration_s: float,
    total: int,
    resumed: int,
) -> "CampaignSummary":
    """Build a summary from completed records, merging their per-scenario
    metric deltas (shared by live runs and --report)."""
    return CampaignSummary(
        rows=[record.row for record in ordered],
        workers=workers,
        duration_s=duration_s,
        total_scenarios=total,
        resumed=resumed,
        metrics=metrics_merge({}, *(record.metrics for record in ordered)),
    )


def summary_from_journals(paths: Sequence["Path | str"]) -> "CampaignSummary":
    """Merge several journals into one cross-campaign summary.

    Journals are folded in argument order; a scenario key appearing in
    more than one journal keeps its *last* record (last-write-wins, the
    same rule the fold applies within a single journal).  Row order is
    deterministic: each journal's grid keys (or completion order for
    legacy journals) are concatenated in argument order, first
    appearance wins — so re-rendering the same journal list is
    byte-identical, no matter how the campaigns interleaved.
    """
    if not paths:
        raise ValueError("no journals given")
    completed: Dict[str, CompletedScenario] = {}
    ordered_keys: List[str] = []
    seen_keys: set = set()
    targets = [
        expanded for path in paths for expanded in _expand_journal_arg(path)
    ]
    for target in targets:
        if not target.exists():
            raise ValueError(f"journal {target} does not exist")
        records, keys = _scan_journal(target)
        completed.update(records)  # later journals win on duplicates
        if keys is None:
            keys = list(records)  # legacy: completion order
        for key in keys:
            if key not in seen_keys:
                seen_keys.add(key)
                ordered_keys.append(key)
    ordered = [completed[key] for key in ordered_keys if key in completed]
    return _summarize(
        ordered,
        workers=0,  # offline: nothing executed
        duration_s=0.0,
        total=len(ordered_keys),
        resumed=len(ordered),
    )


def service_journals(path: "Path | str") -> List[Path]:
    """The journal list of a campaign-service directory, manifest first.

    The service writes one header-only ``manifest.jsonl`` (the grid's
    keys, in grid order) plus one ``shard-NN.jsonl`` per worker slot;
    folding them manifest-first reproduces exactly the row order a
    batch run would journal, so the merged ``--report`` artifacts are
    byte-identical to an uninterrupted single-journal campaign.
    """
    target = Path(path)
    manifest = target / "manifest.jsonl"
    if not manifest.exists():
        raise ValueError(
            f"{target} is not a campaign-service directory "
            f"(no manifest.jsonl)"
        )
    return [manifest, *sorted(target.glob("shard-*.jsonl"))]


def _expand_journal_arg(path: "Path | str") -> List[Path]:
    """A journal argument: a JSONL file, or a campaign-service
    directory that expands to its manifest + shard journals."""
    target = Path(path)
    if target.is_dir():
        return service_journals(target)
    return [target]


# -- summaries -----------------------------------------------------------------


@dataclass(frozen=True)
class FamilySummary:
    """Aggregate measurements over one family's scenarios."""

    family: str
    scenarios: int
    verified: int
    verified_rate: float
    automated_prompts: int
    human_prompts: int
    mean_leverage: Optional[float]  # over rows with ≥1 human prompt
    roles_ok: int = 0  # per-role no-transit verdicts that held...
    roles_total: int = 0  # ...out of how many (0 for hub-policy rows)

    def render(self) -> str:
        leverage = (
            "   n/a" if self.mean_leverage is None
            else f"{self.mean_leverage:5.1f}X"
        )
        line = (
            f"{self.family:>8}: {self.verified}/{self.scenarios} verified "
            f"({100 * self.verified_rate:5.1f}%)  automated="
            f"{self.automated_prompts:>4} human={self.human_prompts:>3} "
            f"mean leverage={leverage}"
        )
        if self.roles_total:
            line += f" roles_ok={self.roles_ok}/{self.roles_total}"
        return line


@dataclass
class CampaignSummary:
    """Every completed row of a campaign plus per-family aggregates.

    ``to_dict``/``write_json``/``write_csv`` emit only deterministic
    fields — coordinates and measurements — so two campaigns over the
    same grid produce byte-identical artifacts no matter the worker
    count or how many times they were interrupted and resumed.
    Wall-clock and cache accounting are exposed on the object (and in
    :meth:`render`) but never written to the summary files.
    """

    rows: List[ScenarioResult] = field(default_factory=list)
    workers: int = 1
    duration_s: float = 0.0
    total_scenarios: Optional[int] = None  # grid size; None -> len(rows)
    resumed: int = 0  # rows recovered from the journal, not re-run
    # The merged registry delta over every row (per-cache memo traffic,
    # phase timers, ...).  Render-only, like every counter view below:
    # never part of to_dict/write_json/write_csv.
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def errors(self) -> List[ScenarioResult]:
        return [row for row in self.rows if row.error is not None]

    @property
    def total(self) -> int:
        return len(self.rows) if self.total_scenarios is None else self.total_scenarios

    @property
    def incomplete(self) -> bool:
        return len(self.rows) < self.total

    def _count(self, series: str) -> int:
        return int(self.metrics.get(series, 0))

    @property
    def cache_hits(self) -> int:
        return memo_totals(self.metrics)[0]

    @property
    def cache_misses(self) -> int:
        return memo_totals(self.metrics)[1]

    @property
    def sim_full_runs(self) -> int:
        return self._count("sim.full_converge.count")

    @property
    def sim_incremental_runs(self) -> int:
        return self._count("sim.incremental_converge.count")

    @property
    def sim_full_evals(self) -> int:
        return self._count("sim.full_evaluations")

    @property
    def sim_incremental_evals(self) -> int:
        return self._count("sim.incremental_evaluations")

    @property
    def routes_built(self) -> int:
        return self._count("route.routes_built")

    @property
    def routes_reused(self) -> int:
        return self._count("route.routes_reused")

    @property
    def cache_hit_rate(self) -> Optional[float]:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else None

    @property
    def sim_speedup(self) -> Optional[float]:
        """Estimated incremental-vs-full work ratio: mean route
        evaluations per full convergence over mean per incremental."""
        if not self.sim_full_runs or not self.sim_incremental_runs:
            return None
        full_mean = self.sim_full_evals / self.sim_full_runs
        incremental_mean = (
            self.sim_incremental_evals / self.sim_incremental_runs
        )
        if incremental_mean <= 0:
            return None
        return full_mean / incremental_mean

    def by_family(self) -> List[FamilySummary]:
        grouped: Dict[str, List[ScenarioResult]] = {}
        for row in self.rows:
            if row.error is None:
                grouped.setdefault(row.family, []).append(row)
        summaries = []
        for family in sorted(grouped):
            rows = grouped[family]
            verified = sum(1 for row in rows if row.verified)
            leverages = [
                row.leverage for row in rows if row.leverage is not None
            ]
            summaries.append(
                FamilySummary(
                    family=family,
                    scenarios=len(rows),
                    verified=verified,
                    verified_rate=verified / len(rows),
                    automated_prompts=sum(
                        row.automated_prompts for row in rows
                    ),
                    human_prompts=sum(row.human_prompts for row in rows),
                    mean_leverage=(
                        sum(leverages) / len(leverages) if leverages else None
                    ),
                    roles_ok=sum(row.roles_ok for row in rows),
                    roles_total=sum(row.roles_total for row in rows),
                )
            )
        return summaries

    @staticmethod
    def _row_dict(row: ScenarioResult) -> dict:
        record = asdict(row)
        del record["duration_s"]  # wall-clock: journal-only
        record.pop("trace", None)  # tracebacks: journal-only
        if record.get("lint_findings") is None:
            # Non-lint campaigns keep their v6 summary shape exactly.
            record.pop("lint_findings", None)
            record.pop("lint_high", None)
        return record

    @property
    def linted_rows(self) -> List[ScenarioResult]:
        return [row for row in self.rows if row.lint_findings is not None]

    def to_dict(self) -> dict:
        payload = {
            "scenarios": len(self.rows),
            "errors": len(self.errors),
            "families": {
                summary.family: {
                    "scenarios": summary.scenarios,
                    "verified": summary.verified,
                    "verified_rate": summary.verified_rate,
                    "automated_prompts": summary.automated_prompts,
                    "human_prompts": summary.human_prompts,
                    "mean_leverage": summary.mean_leverage,
                    "roles_ok": summary.roles_ok,
                    "roles_total": summary.roles_total,
                }
                for summary in self.by_family()
            },
            "rows": [self._row_dict(row) for row in self.rows],
        }
        linted = self.linted_rows
        if linted:
            payload["lint"] = {
                "scenarios": len(linted),
                "findings": sum(row.lint_findings or 0 for row in linted),
                "high": sum(row.lint_high or 0 for row in linted),
            }
        return payload

    def write_json(self, path: "Path | str") -> Path:
        target = Path(path)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target

    def write_csv(self, path: "Path | str") -> Path:
        target = Path(path)
        columns = [
            "family", "size", "seed", "profile", "iips", "roles", "topo",
            "place", "automated_prompts", "human_prompts", "leverage",
            "verified", "global_ok", "roles_ok", "roles_total", "error",
        ]
        with target.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            for row in self.rows:
                record = self._row_dict(row)
                # The CSV column set is fixed; lint counts live in the
                # JSON summary and the journal only.
                record.pop("lint_findings", None)
                record.pop("lint_high", None)
                if record["leverage"] is None:
                    # None means "no human prompts" on a completed run;
                    # error rows keep the column empty.
                    record["leverage"] = "" if row.error else "inf"
                writer.writerow(record)
        return target

    def render(self) -> str:
        lines = [row.render() for row in self.rows]
        lines.append("")
        status = f"{len(self.rows)}/{self.total} scenarios"
        if self.resumed:
            status += f" ({self.resumed} resumed from journal)"
        lines.append(
            f"campaign: {status}, {len(self.errors)} errors, "
            f"{self.workers} worker(s), {self.duration_s:.2f}s"
        )
        rate = self.cache_hit_rate
        if rate is not None:
            lines.append(
                f"  symbolic cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses ({100 * rate:.1f}% hit rate)"
            )
        if self.sim_full_runs or self.sim_incremental_runs:
            sim_line = (
                f"  bgp simulation: {self.sim_full_runs} full / "
                f"{self.sim_incremental_runs} incremental convergence(s)"
            )
            speedup = self.sim_speedup
            if speedup is not None:
                sim_line += f" (incremental does ~{speedup:.1f}x less work)"
            lines.append(sim_line)
        if self.routes_built or self.routes_reused:
            lines.append(
                f"  route datapath: {self.routes_built} route(s) built / "
                f"{self.routes_reused} reused without copying"
            )
        linted = self.linted_rows
        if linted:
            lines.append(
                f"  lint: {sum(row.lint_findings or 0 for row in linted)} "
                f"finding(s) "
                f"({sum(row.lint_high or 0 for row in linted)} high) "
                f"across {len(linted)} linted scenario(s)"
            )
        for name, hits, misses in self.cache_breakdown():
            lookups = hits + misses
            rate = 100 * hits / lookups if lookups else 0.0
            lines.append(
                f"    {name}: {hits} hits / {misses} misses "
                f"({rate:.1f}% hit rate)"
            )
        for summary in self.by_family():
            lines.append("  " + summary.render())
        return "\n".join(lines)

    def cache_breakdown(self) -> List[Tuple[str, int, int]]:
        """Per-cache ``(name, hits, misses)`` from the merged metrics —
        aggregated across every worker process, unlike the historical
        parent-only ``cache_stats()`` view (worker caches were silently
        lost)."""
        caches: Dict[str, Dict[str, int]] = {}
        for name, value in self.metrics.items():
            if not name.startswith("memo."):
                continue
            if name.endswith(".hits"):
                caches.setdefault(name[5:-5], {})["hits"] = int(value)
            elif name.endswith(".misses"):
                caches.setdefault(name[5:-7], {})["misses"] = int(value)
        return [
            (name, counts.get("hits", 0), counts.get("misses", 0))
            for name, counts in sorted(caches.items())
        ]

    def phase_breakdown(self) -> List[Tuple[str, int, float, float]]:
        """Per-phase ``(name, count, total_s, max_s)`` from the merged
        span timers, slowest total first."""
        phases: Dict[str, Tuple[int, float, float]] = {}
        prefix = "phase."
        for name in self.metrics:
            if name.startswith(prefix) and name.endswith(".count"):
                phase = name[len(prefix): -len(".count")]
                phases[phase] = (
                    int(self.metrics.get(f"{prefix}{phase}.count", 0)),
                    float(self.metrics.get(f"{prefix}{phase}.total_s", 0.0)),
                    float(self.metrics.get(f"{prefix}{phase}.max_s", 0.0)),
                )
        return sorted(
            (
                (phase, count, total_s, max_s)
                for phase, (count, total_s, max_s) in phases.items()
            ),
            key=lambda entry: (-entry[2], entry[0]),
        )

    @staticmethod
    def _row_key(row: ScenarioResult) -> str:
        return (
            f"{row.family}:{row.size}:{row.seed}:{row.profile}:"
            f"{'iips' if row.iips else 'noiips'}:{row.roles}:{row.topo}:"
            f"{row.place}"
        )

    def render_profile(self, top: int = 10) -> str:
        """The ``--profile`` view: phase breakdown, slowest scenarios,
        per-cache hit rates (all journal-sourced — works offline)."""
        lines = [
            f"campaign profile: {len(self.rows)} scenario(s), "
            f"{sum(row.duration_s for row in self.rows):.2f}s scenario "
            f"wall-clock"
        ]
        phases = self.phase_breakdown()
        scenario_total = next(
            (
                total_s
                for phase, _count, total_s, _max in phases
                if phase == "scenario"
            ),
            0.0,
        )
        if phases:
            lines.append("  phase breakdown:")
            for phase, count, total_s, max_s in phases:
                line = (
                    f"    {phase:<14} {count:>6}x  {total_s:>9.3f}s total  "
                    f"{max_s:>8.3f}s max"
                )
                if scenario_total > 0:
                    line += (
                        f"  ({100 * total_s / scenario_total:5.1f}% of "
                        f"scenario time)"
                    )
                lines.append(line)
        else:
            lines.append("  phase breakdown: no phase metrics recorded")
        slowest = sorted(
            self.rows, key=lambda row: -row.duration_s
        )[: max(0, top)]
        if slowest:
            lines.append(f"  slowest {len(slowest)} scenario(s):")
            for row in slowest:
                suffix = "  ERROR" if row.error is not None else ""
                lines.append(
                    f"    {row.duration_s:>8.3f}s  "
                    f"{self._row_key(row)}{suffix}"
                )
        breakdown = self.cache_breakdown()
        if breakdown:
            lines.append("  cache hit rates:")
            for name, hits, misses in breakdown:
                lookups = hits + misses
                rate = 100 * hits / lookups if lookups else 0.0
                lines.append(
                    f"    {name:<20} {hits:>8} hits / {misses:>8} misses  "
                    f"({rate:5.1f}%)"
                )
        return "\n".join(lines)


# -- the engine ----------------------------------------------------------------


class CampaignInterrupted(RuntimeError):
    """A parallel campaign gave up on a unit, but every finished row is
    journaled.

    Raised once a unit's worker died on every attempt its retry budget
    allows, after every other unit has finished: the journal keeps
    everything that completed, and the message tells the operator how
    to continue (``--resume <journal>``).
    """

    def __init__(
        self,
        message: str,
        journal: Optional[Path] = None,
        completed: int = 0,
        total: int = 0,
    ) -> None:
        super().__init__(message)
        self.journal = journal
        self.completed = completed
        self.total = total


class CampaignStalled(CampaignInterrupted):
    """A unit's worker made no progress within the timeout on its last
    attempt and was killed."""


class UnpicklableWorkItem(CampaignInterrupted):
    """A work item could not be pickled for a worker process, so its
    unit failed at dispatch without running; the message names it."""


def _interrupted_message(
    cause: str, journal: Optional[Path], completed: int, total: int
) -> str:
    if journal is None:
        return (
            f"{cause}; no journal was configured, so the {completed} "
            f"finished scenario(s) of {total} are lost — re-run with a "
            f"journal (--journal) to make campaigns resumable"
        )
    return (
        f"{cause}; {completed}/{total} scenario(s) are safe in {journal} "
        f"— continue with --resume {journal}"
    )


def _interrupted_error(
    failed: Sequence[Any],
    timeout: Optional[float],
    journal: Optional[Path],
    completed: int,
    total: int,
) -> CampaignInterrupted:
    """The error for work units that failed on every attempt:
    :class:`UnpicklableWorkItem` if one could not be dispatched, else
    :class:`CampaignStalled` if one was a stall kill after ``timeout``
    seconds without progress."""
    for unit in failed:
        if unit.error is not None:
            return UnpicklableWorkItem(
                _interrupted_message(unit.error, journal, completed, total),
                journal=journal,
                completed=completed,
                total=total,
            )
    stalled = any(unit.stalled for unit in failed)
    cause = f"{len(failed)} unit(s) failed on every attempt: " + (
        f"no progress within {timeout:g}s (hung worker?)"
        if stalled else "the worker died"
    )
    return (CampaignStalled if stalled else CampaignInterrupted)(
        _interrupted_message(cause, journal, completed, total),
        journal=journal,
        completed=completed,
        total=total,
    )


def run_campaign(
    scenarios: Iterable[Scenario],
    workers: int = 1,
    journal_path: "Path | str | None" = None,
    resume: bool = False,
    limit: Optional[int] = None,
    timeout: Optional[float] = None,
    trace_path: "Path | str | None" = None,
) -> CampaignSummary:
    """Run every scenario, inline or on ``workers`` worker processes.

    Per-scenario seeding is position-independent and summary rows are
    ordered by grid position, so ``workers`` only affects wall-clock.

    With ``journal_path``, every completed scenario is appended to the
    JSONL journal the moment it finishes, and the returned summary is
    reconstructed by folding over that journal.  ``resume=True`` folds
    the journal *first* and re-runs only the scenarios it lacks.
    ``limit`` caps how many pending scenarios run (the deterministic
    way to interrupt a campaign mid-grid).

    With ``workers > 1`` the grid runs on the campaign service's
    scheduler over a temporary state directory.  A unit whose worker
    dies — or, with ``timeout``, makes no progress for that many
    seconds and is killed — is resubmitted up to the service's retry
    budget (2 resubmissions); journaled scenarios are never re-run.
    Only a unit that exhausts its budget stops the campaign: once every
    other unit has finished, :class:`CampaignInterrupted` (or
    :class:`CampaignStalled` for a stall kill) names ``--resume``.  The
    serial path runs scenarios inline and cannot preempt them, so
    ``timeout`` only applies with ``workers > 1``.

    ``trace_path`` enables span tracing for the run (parent *and*
    workers) and writes one merged Chrome trace-event JSON file there —
    load it in Perfetto or chrome://tracing.  Only scenarios executed
    by *this* run appear (resumed rows carry no span payload).
    """
    grid = list(scenarios)
    keys = [scenario.key() for scenario in grid]
    key_set = set(keys)
    started = time.perf_counter()
    journal = Path(journal_path) if journal_path is not None else None
    if resume and journal is None:
        raise ValueError("resume=True requires a journal_path")
    completed: Dict[str, CompletedScenario] = {}
    header_keys: Optional[List[str]] = None
    journal_exists = journal is not None and journal.exists()
    if journal_exists:
        # One pass recovers both this grid's completed records and the
        # last header's keys (the fold used to run twice: once merely
        # to test truthiness, then again for the grid keys).
        records, header_keys = _scan_journal(journal, key_set)
        if resume:
            completed = records
        elif records:
            # The journal exists to survive interruptions; silently
            # truncating one that holds this grid's results would
            # destroy exactly the work it protects.
            raise ValueError(
                f"journal {journal} already holds results for this grid; "
                f"pass resume=True (--resume) to continue it, or remove "
                f"the file to start over"
            )
    resumed = len(completed)
    pending = [scenario for scenario in grid if scenario.key() not in completed]
    if limit is not None:
        pending = pending[: max(0, limit)]

    tracing = trace_path is not None
    was_tracing = tracing_enabled()
    trace_events: List[dict] = []
    if tracing:
        set_tracing(True)

    handle: Optional[TextIO] = None
    if journal is not None:
        appending = resume and journal_exists
        stale_header = appending and header_keys != keys
        handle = _open_journal(journal, append=appending)
        if not appending or stale_header:
            # Fresh journals get a header; resuming under a *different*
            # grid appends a new one, so offline --report reconstruction
            # always orders by the grid that last owned the journal.
            _append(handle, _journal_header(grid))

    def record_completion(record: CompletedScenario) -> None:
        completed[record.key] = record
        trace_events.extend(record.spans)
        if handle is not None:
            _append(handle, _journal_line(record))

    try:
        # Workers receive only the Scenario coordinates and regenerate
        # its network locally (generation is byte-deterministic).
        if workers <= 1 or len(pending) <= 1:
            for scenario in pending:
                record_completion(execute_scenario(scenario))
        else:
            from ..service.scheduler import run_waves

            failed = run_waves(
                [pending],
                workers,
                record_completion,
                stall_timeout_s=timeout,
                trace=tracing,
                lint=_LINT_ENABLED,
            )
            if failed:
                raise _interrupted_error(
                    failed, timeout, journal, len(completed), len(grid)
                )
    finally:
        if handle is not None:
            handle.close()
        if tracing:
            # Parent-side spans join the worker payloads; one merged
            # trace survives even an interrupted campaign.
            trace_events.extend(drain_events())
            set_tracing(was_tracing)
            write_trace(str(trace_path), trace_events)

    if journal is not None:
        # The journal, not in-process state, is the source of truth.
        completed = _scan_journal(journal, key_set)[0]
    ordered = [completed[key] for key in keys if key in completed]
    return _summarize(
        ordered,
        workers=max(1, workers),
        duration_s=time.perf_counter() - started,
        total=len(grid),
        resumed=resumed,
    )

