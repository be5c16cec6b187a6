"""The fuzz loop: scenarios × toggle combinations, against the baseline.

Each iteration derives its scenario purely from ``(fuzz_seed, index)``
(see :mod:`repro.fuzz.scenarios`), observes it under the both-off
baseline and under the three other toggle combinations, and reports
the first divergence.  A divergence is delta-debugged down to a
minimal scenario and returned as a ready-to-serialize corpus record.

Results stream through the campaign's JSONL journal substrate: every
finished iteration is appended and flushed, ``resume=True`` folds the
journal first and re-runs only missing indices, and the final summary
is rebuilt by folding — so an interrupted nightly fuzz run continues
where it stopped, at any worker count, with a byte-identical outcome.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core import toggles
from .corpus import make_record, write_repro
from .oracle import BASELINE, all_combos, diff_observations, observe
from .scenarios import FuzzScenario, scenario_at
from .shrink import shrink_scenario

__all__ = [
    "FUZZ_JOURNAL_VERSION",
    "FuzzConfig",
    "FuzzIterationResult",
    "FuzzSummary",
    "fold_fuzz_journal",
    "lint_scenario",
    "run_fuzz",
    "run_fuzz_iteration",
]

# v2 adds the static-analysis cross-check columns to every executed
# iteration: ``broken`` (did the baseline observation end with a
# violated invariant or failed global check), ``lint_findings``/
# ``lint_high`` (analyzer counts over the final edited configs), and
# ``recall_gap`` (simulator says broken, analyzer found nothing — a
# journaled hole in the lint rule set).  v3 drops the ``pairs`` header
# field and the per-row ``check`` kind (every combination always runs,
# and every mismatch is a semantic one).  Folding stays tolerant in
# both directions.
FUZZ_JOURNAL_VERSION = 3


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz run's knobs.

    ``iterations`` pins an exact, deterministic amount of work;
    ``budget_s`` instead runs until the wall-clock budget is spent
    (the nightly mode).  ``planted`` names hidden known-bug flags to
    re-enable — the harness's self-test mechanism, proving the loop
    can find, shrink, and serialize a real historical bug.
    """

    fuzz_seed: int = 0
    iterations: Optional[int] = None
    budget_s: Optional[float] = None
    workers: int = 1
    corpus_dir: "Path | str" = Path("tests/fuzz_corpus")
    planted: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FuzzIterationResult:
    """One iteration's outcome (one journal row)."""

    index: int
    key: str
    ok: bool
    combo: Optional[Dict[str, Any]] = None
    mismatch: Optional[str] = None
    repro: Optional[dict] = None  # shrunk corpus record, ready to write
    error: Optional[str] = None  # scenario-generation failure (skipped)
    # Static-analysis cross-check (journal v2).  ``recall_gap`` is the
    # interesting bit: the simulator proves the final edited configs
    # broken, yet the analyzer found nothing — a measured hole in the
    # lint rule set, journaled so it can become a new rule.  All None
    # on skipped iterations and rows folded from v1 journals.
    broken: Optional[bool] = None
    lint_findings: Optional[int] = None
    lint_high: Optional[int] = None
    recall_gap: Optional[bool] = None


def _apply_planted(planted: Sequence[str]) -> None:
    from ..batfish.bgpsim import _plant_bug

    for name in planted:
        _plant_bug(name, True)


@contextmanager
def _planted_scope(planted: Sequence[str]):
    """Plant the named bugs for the duration of the block, restoring the
    previous planted set on exit — an in-process fuzz run must not leave
    a known bug enabled for whatever runs next."""
    from ..batfish.bgpsim import _KNOWN_PLANTED_BUGS, _plant_bug, _planted_bugs

    before = _planted_bugs()
    _apply_planted(planted)
    try:
        yield
    finally:
        for name in _KNOWN_PLANTED_BUGS:
            _plant_bug(name, name in before)


def run_fuzz_iteration(
    fuzz_seed: int,
    index: int,
    planted: Sequence[str] = (),
) -> FuzzIterationResult:
    """Fuzz one index: observe under every combination, diff against
    the baseline, shrink the first divergence.  Deterministic — the
    same arguments produce the same result in any process."""
    with _planted_scope(planted):
        return _fuzz_index(fuzz_seed, index)


def _fuzz_index(fuzz_seed: int, index: int) -> FuzzIterationResult:
    scenario = scenario_at(fuzz_seed, index)
    try:
        baseline_obs = observe(scenario, BASELINE)
    except Exception as exc:
        return FuzzIterationResult(
            index=index,
            key=scenario.key(),
            ok=True,
            error=f"{type(exc).__name__}: {exc}",
        )
    broken, lint_findings, lint_high, recall_gap = _lint_cross_check(
        scenario, baseline_obs
    )
    failure: Optional[Tuple[Dict[str, Any], str]] = None
    for combo in all_combos():
        if combo == BASELINE:
            continue
        mismatch = diff_observations(baseline_obs, observe(scenario, combo))
        if mismatch is not None:
            failure = (combo, mismatch)
            break
    if failure is None:
        return FuzzIterationResult(
            index=index,
            key=scenario.key(),
            ok=True,
            broken=broken,
            lint_findings=lint_findings,
            lint_high=lint_high,
            recall_gap=recall_gap,
        )

    combo, mismatch = failure

    def divergence(candidate: FuzzScenario) -> Optional[str]:
        return diff_observations(
            observe(candidate, BASELINE), observe(candidate, combo)
        )

    shrunk = shrink_scenario(
        scenario, lambda candidate: divergence(candidate) is not None
    )
    if shrunk != scenario:
        mismatch = divergence(shrunk) or mismatch
    record = make_record(
        shrunk,
        combo,
        dict(BASELINE),
        mismatch,
        fuzz_seed=fuzz_seed,
        index=index,
    )
    return FuzzIterationResult(
        index=index,
        key=scenario.key(),
        ok=False,
        combo=combo,
        mismatch=mismatch,
        repro=record,
        broken=broken,
        lint_findings=lint_findings,
        lint_high=lint_high,
        recall_gap=recall_gap,
    )


def _lint_cross_check(
    scenario: FuzzScenario, baseline_obs: dict
) -> Tuple[Optional[bool], Optional[int], Optional[int], Optional[bool]]:
    """Cross the simulator's verdict with the static analyzer's.

    ``broken`` reads the *final* baseline step (the state the analyzer
    sees): any local-invariant violation or a failed global check.  The
    analyzer then runs over the same final edited configs; a broken
    network that lints clean is a recall gap — journaled, and counted
    on ``analysis.recall_gaps``, so fuzzing continuously measures the
    rule set's blind spots.  Analysis failures degrade to all-None
    rather than aborting the iteration.
    """
    try:
        last = baseline_obs["steps"][-1]
        broken = bool(last["violations"]) or not last["global"]["holds"]
    except (KeyError, IndexError, TypeError):
        return None, None, None, None
    try:
        from ..obs import counter

        report = lint_scenario(scenario)
    except Exception:
        return broken, None, None, None
    recall_gap = bool(broken and len(report) == 0)
    if recall_gap:
        counter("analysis.recall_gaps").inc()
    return broken, len(report), report.high, recall_gap


def lint_scenario(scenario: FuzzScenario):
    """Run the static analyzer over a fuzz scenario's *final* configs.

    Rebuilds the reference configs for the scenario's topology, applies
    its whole edit sequence, renders every router, and returns the
    :class:`~repro.analysis.findings.LintReport`.  Pure function of the
    scenario — the corpus determinism test asserts two calls serialize
    identically.
    """
    from ..analysis import analyze_configs
    from ..cisco.generator import generate_cisco
    from ..experiments.no_transit import materialize_network
    from ..topology.reference import build_reference_configs
    from .edits import apply_edit_op, resolve_router

    network = materialize_network(
        scenario.family,
        scenario.size,
        roles=scenario.roles,
        topo=scenario.topo,
        topology_seed=scenario.topology_seed,
        place=scenario.place,
    )
    topology = network.topology
    configs = build_reference_configs(topology)
    for edit in scenario.edits:
        router = resolve_router(edit.router_index, configs)
        apply_edit_op(edit.op, configs, router)
    texts = {
        name: generate_cisco(config) for name, config in configs.items()
    }
    return analyze_configs(configs, topology=topology, texts=texts)


# -- the fuzz journal ----------------------------------------------------------


def _fuzz_header(config: FuzzConfig) -> str:
    return json.dumps(
        {
            "kind": "fuzz",
            "version": FUZZ_JOURNAL_VERSION,
            "fuzz_seed": config.fuzz_seed,
            "combos": len(all_combos()),
        },
        sort_keys=True,
    )


def _fuzz_line(result: FuzzIterationResult) -> str:
    return json.dumps(
        {
            "kind": "fuzz_result",
            "index": result.index,
            "key": result.key,
            "ok": result.ok,
            "combo": result.combo,
            "mismatch": result.mismatch,
            "repro": result.repro,
            "error": result.error,
            "broken": result.broken,
            "lint_findings": result.lint_findings,
            "lint_high": result.lint_high,
            "recall_gap": result.recall_gap,
        },
        sort_keys=True,
    )


def fold_fuzz_journal(path: "Path | str") -> Dict[int, FuzzIterationResult]:
    """Reconstruct fuzz results by folding a journal (same tolerance
    rules as the campaign fold: malformed lines skipped, latest record
    per index wins)."""
    results: Dict[int, FuzzIterationResult] = {}
    target = Path(path)
    if not target.exists():
        return results
    with target.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if (
                not isinstance(record, dict)
                or record.get("kind") != "fuzz_result"
            ):
                continue
            index = record.get("index")
            key = record.get("key")
            if not isinstance(index, int) or not isinstance(key, str):
                continue
            results[index] = FuzzIterationResult(
                index=index,
                key=key,
                ok=bool(record.get("ok")),
                combo=record.get("combo"),
                mismatch=record.get("mismatch"),
                repro=record.get("repro"),
                error=record.get("error"),
                broken=record.get("broken"),
                lint_findings=record.get("lint_findings"),
                lint_high=record.get("lint_high"),
                recall_gap=record.get("recall_gap"),
            )
    return results


# -- the loop ------------------------------------------------------------------


@dataclass
class FuzzSummary:
    """Everything one fuzz run produced."""

    results: List[FuzzIterationResult] = field(default_factory=list)
    fuzz_seed: int = 0
    workers: int = 1
    duration_s: float = 0.0
    resumed: int = 0
    corpus_written: List[Path] = field(default_factory=list)

    @property
    def mismatches(self) -> List[FuzzIterationResult]:
        return [result for result in self.results if not result.ok]

    @property
    def skipped(self) -> List[FuzzIterationResult]:
        return [result for result in self.results if result.error is not None]

    @property
    def recall_gaps(self) -> List[FuzzIterationResult]:
        """Iterations the simulator proved broken but the analyzer
        linted clean — measured blind spots in the lint rule set."""
        return [result for result in self.results if result.recall_gap]

    def render(self) -> str:
        lines = []
        for result in self.results:
            if result.error is not None:
                lines.append(
                    f"  [{result.index:>4}] SKIP {result.key} "
                    f"({result.error})"
                )
            elif not result.ok:
                lines.append(
                    f"  [{result.index:>4}] FAIL {result.key}\n"
                    f"         mismatch under {result.combo}:\n"
                    f"         {result.mismatch}"
                )
            if result.recall_gap:
                lines.append(
                    f"  [{result.index:>4}] LINT-GAP {result.key} "
                    f"(simulator: broken; analyzer: 0 findings)"
                )
        status = (
            f"fuzz: {len(self.results)} iteration(s), "
            f"{len(self.mismatches)} mismatch(es), "
            f"{len(self.skipped)} skipped, seed {self.fuzz_seed}, "
            f"{self.workers} worker(s), {self.duration_s:.2f}s"
        )
        if self.recall_gaps:
            status += f", {len(self.recall_gaps)} lint recall gap(s)"
        lines.append(status)
        for path in self.corpus_written:
            lines.append(f"  shrunk repro written: {path}")
        return "\n".join(lines)


def _init_fuzz_worker(
    toggle_values: Dict[str, Any], planted: Sequence[str]
) -> None:
    """Propagate the parent's toggle configuration and any planted-bug
    flags into a pool worker (start methods other than fork do not
    inherit module globals)."""
    toggles.apply(toggle_values)
    _apply_planted(planted)


def run_fuzz(
    config: FuzzConfig,
    journal_path: "Path | str | None" = None,
    resume: bool = False,
) -> FuzzSummary:
    """Run the fuzz loop; returns a summary folded from the journal.

    With ``iterations`` set the run is exactly that many indices (the
    deterministic mode the corpus tests rely on); with ``budget_s`` the
    loop keeps claiming indices until the budget is spent.  Corpus
    records are written by the parent only, so worker count never
    changes what lands on disk.
    """
    from ..experiments.campaign import _append, _open_journal

    if config.iterations is None and config.budget_s is None:
        raise ValueError("FuzzConfig needs iterations or budget_s")
    with _planted_scope(config.planted):
        return _run_fuzz_loop(config, journal_path, resume)


def _run_fuzz_loop(
    config: FuzzConfig,
    journal_path: "Path | str | None",
    resume: bool,
) -> FuzzSummary:
    from ..experiments.campaign import _append, _open_journal

    started = time.perf_counter()
    journal = Path(journal_path) if journal_path is not None else None
    if resume and journal is None:
        raise ValueError("resume=True requires a journal_path")
    completed: Dict[int, FuzzIterationResult] = {}
    if resume and journal.exists():
        completed = fold_fuzz_journal(journal)
    resumed = len(completed)

    handle = None
    if journal is not None:
        appending = resume and journal.exists()
        # _open_journal repairs a crash-truncated final line whenever
        # it appends, so the first resumed record never lands on the
        # fragment the crash left behind.
        handle = _open_journal(journal, append=appending)
        if not appending:
            _append(handle, _fuzz_header(config))

    def budget_left() -> bool:
        return (
            config.budget_s is None
            or time.perf_counter() - started < config.budget_s
        )

    def record_result(result: FuzzIterationResult) -> None:
        completed[result.index] = result
        if handle is not None:
            _append(handle, _fuzz_line(result))

    try:
        if config.workers <= 1:
            index = 0
            ran = 0
            while budget_left() and (
                config.iterations is None or ran < config.iterations
            ):
                if config.iterations is not None and index >= config.iterations:
                    break
                if index not in completed:
                    record_result(
                        run_fuzz_iteration(
                            config.fuzz_seed, index, planted=config.planted
                        )
                    )
                    ran += 1
                index += 1
                if config.iterations is None and index >= 1_000_000:
                    break  # budget mode backstop
        else:
            with ProcessPoolExecutor(
                max_workers=config.workers,
                initializer=_init_fuzz_worker,
                initargs=(toggles.snapshot(), config.planted),
            ) as executor:
                if config.iterations is not None:
                    pending = [
                        index
                        for index in range(config.iterations)
                        if index not in completed
                    ]
                    futures = [
                        executor.submit(
                            run_fuzz_iteration,
                            config.fuzz_seed,
                            index,
                            planted=config.planted,
                        )
                        for index in pending
                    ]
                    for future in as_completed(futures):
                        record_result(future.result())
                else:
                    # Budget mode: submit in waves so the clock is
                    # checked between batches.
                    index = 0
                    while budget_left():
                        wave = []
                        while len(wave) < config.workers * 2:
                            if index not in completed:
                                wave.append(index)
                            index += 1
                        futures = [
                            executor.submit(
                                run_fuzz_iteration,
                                config.fuzz_seed,
                                claim,
                                planted=config.planted,
                            )
                            for claim in wave
                        ]
                        for future in as_completed(futures):
                            record_result(future.result())
    finally:
        if handle is not None:
            handle.close()

    if journal is not None:
        completed = fold_fuzz_journal(journal)
    ordered = [completed[index] for index in sorted(completed)]
    corpus_written = [
        write_repro(config.corpus_dir, result.repro)
        for result in ordered
        if result.repro is not None
    ]
    return FuzzSummary(
        results=ordered,
        fuzz_seed=config.fuzz_seed,
        workers=max(1, config.workers),
        duration_s=time.perf_counter() - started,
        resumed=resumed,
        corpus_written=corpus_written,
    )
