"""Command-line interface: ``python -m repro <command>``.

Commands::

    tables        regenerate every paper table/figure and print them
    translate     run the §3 translation loop and print the summary
    synthesize    run the §4 no-transit loop and print the summary
    incremental   run the §6 incremental-policy extension
    sweep         leverage statistics across seeds
    campaign      parallel scenario campaign over family × size × seed
    serve         long-running campaign service (persistent workers + HTTP)
    submit        submit a grid to a running service
    status        live per-shard progress of a service campaign
    result        merged summary of a service campaign (works mid-run)
    fuzz          differential fuzzing of the A/B toggle matrix
    lint          simulator-grounded static analysis of routing policy

All commands accept ``--seed`` (default 0); ``synthesize`` also accepts
``--routers`` (default 7), ``--family`` (default star), ``--no-iips``,
and — for the seeded random/waxman families — ``--roles`` (a role spec
such as ``c2i3h2``), ``--topo`` (family knobs such as ``p=0.4`` or
``alpha=0.5,beta=0.7``), ``--topo-seed``, and ``--place`` (``seeded``
or ``degree`` role placement).  ``campaign`` takes comma-separated
``--families`` and ``--sizes``, a ``--seeds`` count, a ``--workers``
pool size, repeatable ``--roles``/``--topo``/``--place`` axes for
seeded families, and writes a JSON summary (``--json``, default
``campaign_results.json``) plus an optional ``--csv``.  Results stream
to a JSONL journal (``--journal``, default ``campaign_journal.jsonl``;
``-`` disables) as each scenario completes; ``--resume <journal>``
skips scenarios the journal already holds, and ``--limit N`` stops
after N scenarios (a deterministic interrupt for smoke tests).
``--report <journal>`` renders the summary (and ``--json``/``--csv``
artifacts) from an existing journal without running anything — repeat
the flag to merge several campaigns into one cross-campaign summary
(duplicate scenario keys resolved last-flag-wins); a ``--report``
argument may also be a campaign-service directory, which expands to
its manifest plus shard journals; a parallel run retries a unit whose
worker dies or — with ``--timeout SECONDS`` — makes no progress for
that long, and exits 3 (resumably) once a unit exhausts 2 retries;
``--no-incremental-sim`` disables warm incremental BGP re-simulation
(an A/B comparison against full re-simulation).
``--trace out.json`` (``campaign`` and ``synthesize``) writes a
Chrome trace-event file of every phase span (open in Perfetto or
``chrome://tracing``); ``--profile`` appends a phase/slowest-scenario/
cache-hit-rate breakdown to the campaign summary (works with
``--report`` too).  ``status`` with no campaign id prints service
health (uptime, version, per-worker metric summaries); ``status
--json`` emits the raw JSON and ``status --metrics`` the service's
Prometheus ``/metrics`` text.
``fuzz`` generates seeded random scenarios (``--fuzz-seed``,
``--iterations`` or a wall-clock ``--budget 300s``), runs each under
all four combinations of the incremental-simulation and memoization
toggles, asserts RIB/verdict/witness equality against the both-off
baseline, shrinks any divergence to a minimal repro under ``--corpus``
(default ``tests/fuzz_corpus``), and journals progress for
``--resume``; ``--workers N`` runs the indices on the campaign
scheduler and exits 3 (resumably) once a unit exhausts its retries;
``fuzz --replay`` re-checks every corpus file (by default the
repository's ``tests/fuzz_corpus``, wherever it is run from), reports a
file it cannot replay (e.g. one naming a retired toggle) as a failure,
and fails when there is no corpus file to replay.
``lint`` builds the reference configs for one topology cell
(``--family``/``--routers`` plus the seeded-family knobs), runs every
static-analysis rule over them, and exits 1 on any HIGH finding;
``--fault KEY`` first injects the named catalog fault at its designated
router (the lint should then fire), ``--json`` emits the structured
report, ``--out`` additionally writes it to a file, and ``--validate``
runs the full precision/recall harness over all nine canonical cells
and exits by its gate (zero clean HIGH findings, 100% catalog recall).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["build_parser", "main"]

DEFAULT_JOURNAL = "campaign_journal.jsonl"
DEFAULT_FUZZ_JOURNAL = "fuzz_journal.jsonl"
DEFAULT_FUZZ_CORPUS = "tests/fuzz_corpus"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COSYNTH: Verified Prompt Programming reproduction",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tables = subparsers.add_parser("tables", help="print every paper artifact")
    tables.add_argument("--seed", type=int, default=0)

    translate = subparsers.add_parser("translate", help="run the translation loop")
    translate.add_argument("--seed", type=int, default=0)
    translate.add_argument(
        "--show-config", action="store_true", help="print the final Junos config"
    )

    synthesize = subparsers.add_parser("synthesize", help="run no-transit synthesis")
    synthesize.add_argument("--seed", type=int, default=0)
    synthesize.add_argument("--routers", type=int, default=7)
    synthesize.add_argument(
        "--family",
        default="star",
        help="topology family: star, chain, ring, mesh, dumbbell, random, waxman",
    )
    synthesize.add_argument(
        "--no-iips", action="store_true", help="disable the IIP database"
    )
    synthesize.add_argument(
        "--roles",
        default="default",
        help=(
            "role spec for the seeded families, e.g. c2i3h2 "
            "(2 customers, 3 ISPs with 2 homes each) or c1i2h1p1 "
            "(+1 transit-forbidden peer)"
        ),
    )
    synthesize.add_argument(
        "--topo",
        default="default",
        help=(
            "topology knobs for the seeded families, e.g. p=0.4 (random) "
            "or alpha=0.5,beta=0.7 (waxman)"
        ),
    )
    synthesize.add_argument(
        "--topo-seed",
        type=int,
        default=0,
        help="graph seed for the seeded families (random, waxman)",
    )
    synthesize.add_argument(
        "--place",
        default="default",
        help=(
            "role-placement strategy for the seeded families: seeded "
            "(default) or degree (customers pinned to the lowest-degree "
            "routers)"
        ),
    )
    synthesize.add_argument(
        "--trace",
        default=None,
        metavar="TRACE",
        help="write a Chrome trace-event JSON of the phase spans",
    )

    incremental = subparsers.add_parser(
        "incremental", help="incremental policy addition (paper §6)"
    )
    incremental.add_argument("--seed", type=int, default=0)
    incremental.add_argument(
        "--no-recheck",
        action="store_true",
        help="skip re-verifying the old invariants (negative control)",
    )

    sweep = subparsers.add_parser("sweep", help="leverage across seeds")
    sweep.add_argument("--seeds", type=int, default=5)

    campaign = subparsers.add_parser(
        "campaign", help="parallel scenario campaign over a grid"
    )
    campaign.add_argument(
        "--families",
        default="star,chain,ring,mesh",
        help="comma-separated topology families",
    )
    campaign.add_argument(
        "--sizes", default="4,6,8", help="comma-separated router counts"
    )
    campaign.add_argument(
        "--seeds", type=int, default=2, help="seeds per (family, size)"
    )
    campaign.add_argument(
        "--profiles",
        default="default",
        help="comma-separated behavior profiles (default, always-fix, sloppy)",
    )
    campaign.add_argument(
        "--iip-ablation",
        action="store_true",
        help="run every scenario with and without the IIP database",
    )
    campaign.add_argument(
        "--roles",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "role-spec axis for seeded families (repeatable), e.g. "
            "--roles c2i2h2 --roles c1i3h1p1; default keeps each "
            "family's fixed layout"
        ),
    )
    campaign.add_argument(
        "--topo",
        action="append",
        default=None,
        metavar="KNOBS",
        help=(
            "topology-knob axis for seeded families (repeatable), e.g. "
            "--topo p=0.4 or --topo alpha=0.5,beta=0.7"
        ),
    )
    campaign.add_argument(
        "--place",
        action="append",
        default=None,
        metavar="STRATEGY",
        help=(
            "role-placement axis for seeded families (repeatable): "
            "seeded or degree (customers on the lowest-degree routers)"
        ),
    )
    campaign.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    campaign.add_argument(
        "--json",
        default="campaign_results.json",
        help="JSON summary path ('-' to skip writing)",
    )
    campaign.add_argument(
        "--csv", default=None, help="optional CSV results path"
    )
    campaign.add_argument(
        "--journal",
        default=None,
        help=(
            "JSONL journal streamed as scenarios complete "
            f"(default {DEFAULT_JOURNAL}; '-' to disable)"
        ),
    )
    campaign.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="resume from an existing journal, skipping completed scenarios",
    )
    campaign.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="run at most N pending scenarios, then stop (for smoke tests)",
    )
    campaign.add_argument(
        "--report",
        action="append",
        default=None,
        metavar="JOURNAL",
        help=(
            "render the summary from existing journal(s) without "
            "re-running anything (offline mode); repeat the flag to "
            "merge several campaigns into one cross-campaign summary "
            "(duplicate scenario keys: last flag wins)"
        ),
    )
    campaign.add_argument(
        "--no-incremental-sim",
        action="store_true",
        help="disable warm incremental BGP re-simulation (A/B comparisons)",
    )
    campaign.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "parallel runs only: kill and retry a worker that makes no "
            "progress for SECONDS; a unit that still hangs after 2 "
            "retries ends the run resumably (exit 3)"
        ),
    )
    campaign.add_argument(
        "--trace",
        default=None,
        metavar="TRACE",
        help=(
            "write a Chrome trace-event JSON of every phase span "
            "(serial and parallel runs; open in Perfetto)"
        ),
    )
    campaign.add_argument(
        "--profile",
        action="store_true",
        help=(
            "append a phase breakdown, the slowest scenarios, and "
            "cache hit rates to the summary (also works with --report)"
        ),
    )
    campaign.add_argument(
        "--lint",
        action="store_true",
        help=(
            "run the static policy analyzer over every scenario's final "
            "synthesized drafts and record the finding counts in the "
            "journal (v7) and summary"
        ),
    )
    campaign.add_argument(
        "--quiet", action="store_true", help="print only the aggregates"
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the campaign service (persistent workers + HTTP API)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642, help="0 picks a free port"
    )
    serve.add_argument(
        "--state-dir",
        default="campaign-service",
        help="where campaign specs and sharded journals live",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="persistent worker processes"
    )
    serve.add_argument(
        "--retry-limit",
        type=int,
        default=2,
        help="resubmissions per work unit after a worker death",
    )
    serve.add_argument(
        "--stall-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help=(
            "kill and replace a worker that makes no progress for SECONDS "
            "with a unit in flight (0 disables hang detection; hard death "
            "is always detected)"
        ),
    )

    submit = subparsers.add_parser(
        "submit", help="submit a campaign grid to a running service"
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8642", help="service base URL"
    )
    submit.add_argument("--families", default="star,chain,ring,mesh")
    submit.add_argument("--sizes", default="4,6,8")
    submit.add_argument("--seeds", type=int, default=2)
    submit.add_argument("--profiles", default="default")
    submit.add_argument("--iip-ablation", action="store_true")
    submit.add_argument("--roles", action="append", default=None)
    submit.add_argument("--topo", action="append", default=None)
    submit.add_argument("--place", action="append", default=None)
    submit.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="scenarios per work unit (default: sized to the worker pool)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the campaign settles and exit by its outcome",
    )
    submit.add_argument(
        "--wait-timeout", type=float, default=600.0, metavar="SECONDS"
    )
    submit.add_argument(
        "--quiet", action="store_true", help="print only the campaign id"
    )

    status = subparsers.add_parser(
        "status", help="show a service campaign's live progress"
    )
    status.add_argument("id", nargs="?", default=None,
                        help="campaign id (omit for service health + list)")
    status.add_argument("--url", default="http://127.0.0.1:8642")
    status.add_argument(
        "--wait", action="store_true", help="poll until done or failed"
    )
    status.add_argument(
        "--wait-timeout", type=float, default=600.0, metavar="SECONDS"
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="emit the raw JSON instead of rendered text",
    )
    status.add_argument(
        "--metrics",
        action="store_true",
        help="print the service's Prometheus /metrics text and exit",
    )

    result = subparsers.add_parser(
        "result",
        help="fetch a service campaign's merged summary (works mid-run)",
    )
    result.add_argument("id", help="campaign id")
    result.add_argument("--url", default="http://127.0.0.1:8642")
    result.add_argument(
        "--json",
        default=None,
        help="write the summary JSON (byte-identical to the batch CLI's)",
    )
    result.add_argument(
        "--quiet", action="store_true", help="print only the one-line status"
    )

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing of the toggle matrix against the "
        "both-off baseline",
    )
    fuzz.add_argument(
        "--fuzz-seed",
        type=int,
        default=0,
        help="seed of the deterministic scenario sequence (default 0)",
    )
    fuzz.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="fuzz exactly N scenario indices (deterministic mode)",
    )
    fuzz.add_argument(
        "--budget",
        default=None,
        metavar="TIME",
        help=(
            "fuzz until the wall-clock budget is spent, e.g. 300s, 5m, "
            "or a plain number of seconds (the nightly mode)"
        ),
    )
    fuzz.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        help=f"directory where shrunk repros are written and replayed from "
        f"(default {DEFAULT_FUZZ_CORPUS}; --replay reads the repository's)",
    )
    fuzz.add_argument(
        "--journal",
        default=None,
        help=(
            "JSONL journal streamed as iterations complete "
            f"(default {DEFAULT_FUZZ_JOURNAL}; '-' to disable)"
        ),
    )
    fuzz.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="resume from an existing fuzz journal, re-running only "
        "missing indices",
    )
    fuzz.add_argument(
        "--replay",
        action="store_true",
        help="replay every checked-in corpus file and exit (no fuzzing)",
    )
    fuzz.add_argument(
        "--quiet", action="store_true", help="print only the final status"
    )
    # Hidden: re-enable a known planted bug (the harness self-test —
    # proves the loop finds, shrinks, and serializes a real regression).
    fuzz.add_argument(
        "--plant", action="append", default=None, help=argparse.SUPPRESS
    )

    lint = subparsers.add_parser(
        "lint",
        help="simulator-grounded static analysis of routing policy",
    )
    lint.add_argument(
        "--family",
        default="star",
        help="topology family: star, chain, ring, mesh, dumbbell, random, waxman",
    )
    lint.add_argument(
        "--routers", type=int, default=7, help="router count (default 7)"
    )
    lint.add_argument(
        "--topo-seed",
        type=int,
        default=0,
        help="graph seed for the seeded families (random, waxman)",
    )
    lint.add_argument(
        "--roles",
        default=None,
        metavar="SPEC",
        help="role spec for the seeded families, e.g. c2i2h2",
    )
    lint.add_argument(
        "--topo",
        default=None,
        metavar="KNOBS",
        help="topology knobs for the seeded families, e.g. p=0.4",
    )
    lint.add_argument(
        "--place",
        default=None,
        metavar="STRATEGY",
        help="role placement for the seeded families: seeded or degree",
    )
    lint.add_argument(
        "--fault",
        default=None,
        metavar="KEY",
        help=(
            "inject the named synthesis-fault-catalog fault at its "
            "designated router before linting (the analyzer should fire)"
        ),
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the structured JSON report instead of text",
    )
    lint.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="additionally write the JSON report to PATH",
    )
    lint.add_argument(
        "--validate",
        action="store_true",
        help=(
            "run the precision/recall harness over all nine canonical "
            "cells and exit by its gate (clean HIGH findings or sub-100%% "
            "recall fail); the single-cell flags above are rejected"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "tables": _cmd_tables,
        "translate": _cmd_translate,
        "synthesize": _cmd_synthesize,
        "incremental": _cmd_incremental,
        "sweep": _cmd_sweep,
        "campaign": _cmd_campaign,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "result": _cmd_result,
        "fuzz": _cmd_fuzz,
        "lint": _cmd_lint,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # stdout piped into e.g. `head`, which exited first; redirect
        # the dangling descriptor so the interpreter's shutdown flush
        # doesn't print a spurious traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from .experiments.tables import (
        render_figure4,
        render_leverage_no_transit,
        render_leverage_translation,
        render_local_vs_global,
        render_scaling,
        render_table1,
        render_table2,
        render_table3,
        render_vpp_ablation,
    )

    for renderer in (
        render_table1,
        render_table2,
        render_leverage_translation,
        render_table3,
        render_leverage_no_transit,
        render_vpp_ablation,
        render_local_vs_global,
        render_scaling,
    ):
        print(renderer(seed=args.seed))
        print()
    print(render_figure4())
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    from .experiments import run_translation_experiment

    experiment = run_translation_experiment(seed=args.seed)
    print(experiment.result.prompt_log.summary())
    for row in experiment.table2_rows():
        print("  " + row.render())
    if args.show_config:
        print()
        print(experiment.result.final_text)
    return 0 if experiment.result.verified else 1


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from .core import DEFAULT_IIP_IDS
    from .experiments import run_no_transit_experiment
    from .obs import drain_events, set_tracing, write_trace

    if args.trace:
        set_tracing(True)
    try:
        experiment = run_no_transit_experiment(
            router_count=args.routers,
            seed=args.seed,
            iip_ids=() if args.no_iips else DEFAULT_IIP_IDS,
            family=args.family,
            roles=args.roles,
            topo=args.topo,
            topology_seed=args.topo_seed,
            place=args.place,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.trace:
            write_trace(args.trace, drain_events())
            set_tracing(False)
    if args.trace:
        print(f"wrote {args.trace}")
    print(experiment.result.prompt_log.summary())
    print(experiment.result.global_check.describe())
    if experiment.result.global_check.role_verdicts:
        print("roles: " + experiment.result.global_check.describe_roles())
    return 0 if experiment.result.verified else 1


def _cmd_incremental(args: argparse.Namespace) -> int:
    from .experiments import run_incremental_policy_experiment

    result = run_incremental_policy_experiment(
        seed=args.seed, recheck_old_invariants=not args.no_recheck
    )
    print(result.render())
    return 0 if result.verified else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    import statistics

    from .experiments import (
        run_no_transit_experiment,
        run_translation_experiment,
    )

    translation, synthesis = [], []
    for seed in range(args.seeds):
        translation.append(run_translation_experiment(seed=seed))
        synthesis.append(run_no_transit_experiment(seed=seed))
        print(
            f"seed={seed}: translation "
            f"{translation[-1].leverage:.1f}X, synthesis "
            f"{synthesis[-1].leverage:.1f}X"
        )
    print(
        f"mean: translation "
        f"{statistics.mean(t.leverage for t in translation):.1f}X "
        f"(paper ~10X), synthesis "
        f"{statistics.mean(s.leverage for s in synthesis):.1f}X (paper 6X)"
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .batfish.bgpsim import set_incremental_simulation
    from .experiments.campaign import (
        CampaignInterrupted,
        build_grid,
        run_campaign,
        set_campaign_lint,
        summary_from_journals,
    )

    if args.report is not None:
        # A report renders the journal(s) as-is: every flag that would
        # select or execute a grid is inert, so reject non-defaults
        # rather than let them look like they scoped the report.
        defaults = build_parser().parse_args(["campaign", "--report", "-"])
        conflicting = [
            flag
            for flag, given in (
                ("--resume", args.resume),
                ("--journal", args.journal is not None),
                ("--limit", args.limit is not None),
                ("--trace", args.trace is not None),
                ("--workers", args.workers != defaults.workers),
                ("--no-incremental-sim", args.no_incremental_sim),
                ("--iip-ablation", args.iip_ablation),
                ("--families", args.families != defaults.families),
                ("--sizes", args.sizes != defaults.sizes),
                ("--seeds", args.seeds != defaults.seeds),
                ("--profiles", args.profiles != defaults.profiles),
                ("--roles", args.roles is not None),
                ("--topo", args.topo is not None),
                ("--place", args.place is not None),
                ("--lint", args.lint),
            )
            if given
        ]
        if conflicting:
            print(
                f"error: --report renders existing journal(s) and cannot be "
                f"combined with {', '.join(conflicting)}",
                file=sys.stderr,
            )
            return 2
        try:
            summary = summary_from_journals(args.report)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _emit_campaign_summary(
            args,
            summary,
            journal=args.report[0] if len(args.report) == 1 else None,
        )

    if args.no_incremental_sim:
        set_incremental_simulation(False)
    set_campaign_lint(args.lint)
    families = [item for item in args.families.split(",") if item]
    profiles = [item for item in args.profiles.split(",") if item]
    try:
        sizes = [int(item) for item in args.sizes.split(",") if item]
        grid = build_grid(
            families,
            sizes,
            seeds=args.seeds,
            profiles=profiles,
            iip_ablation=args.iip_ablation,
            roles=args.roles or ("default",),
            topos=args.topo or ("default",),
            places=args.place or ("default",),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    explicit_journal = args.journal is not None
    journal_arg = args.journal if explicit_journal else DEFAULT_JOURNAL
    journal = None if journal_arg in ("", "-") else journal_arg
    resume = False
    if args.resume:
        if explicit_journal and journal != args.resume:
            print(
                f"error: --journal {journal_arg} conflicts with --resume "
                f"{args.resume}; a resumed campaign appends to the journal "
                f"it resumes from",
                file=sys.stderr,
            )
            return 2
        journal = args.resume
        resume = True
    try:
        summary = run_campaign(
            grid,
            workers=args.workers,
            journal_path=journal,
            resume=resume,
            limit=args.limit,
            timeout=args.timeout,
            trace_path=args.trace,
        )
    except CampaignInterrupted as exc:
        # A unit exhausted its retries.  Everything journaled so far
        # survives; the message names the --resume invocation.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_campaign_summary(args, summary, journal=journal)


def _emit_campaign_summary(
    args: argparse.Namespace, summary, journal: Optional[str]
) -> int:
    if args.quiet:
        print(
            f"campaign: {len(summary.rows)}/{summary.total} scenarios, "
            f"{len(summary.errors)} errors, {summary.workers} worker(s), "
            f"{summary.duration_s:.2f}s"
        )
        for family_summary in summary.by_family():
            print("  " + family_summary.render())
    else:
        print(summary.render())
    if getattr(args, "profile", False):
        print()
        print(summary.render_profile())
    if getattr(args, "trace", None):
        print(f"wrote {args.trace}")
    if args.json and args.json != "-":
        path = summary.write_json(args.json)
        print(f"wrote {path}")
    if args.csv:
        path = summary.write_csv(args.csv)
        print(f"wrote {path}")
    if summary.incomplete and journal is not None:
        print(
            f"incomplete: {summary.total - len(summary.rows)} scenarios "
            f"pending; continue with --resume {journal}"
        )
    return 1 if summary.errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import CampaignService
    from .service.httpapi import serve

    try:
        service = CampaignService(
            args.state_dir,
            workers=args.workers,
            retry_limit=args.retry_limit,
            stall_timeout_s=args.stall_timeout if args.stall_timeout > 0
            else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        ready: "asyncio.Future" = loop.create_future()
        server = asyncio.ensure_future(
            serve(service, host=args.host, port=args.port, ready=ready)
        )
        host, port = await ready
        # Scripts passing --port 0 parse this line for the bound port.
        print(f"repro service listening on http://{host}:{port}", flush=True)
        await server

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    except OSError as exc:  # port in use, unbindable host, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _render_campaign_status(status: dict) -> str:
    extras = []
    if status.get("resumed"):
        extras.append(f"{status['resumed']} resumed")
    if status.get("retries"):
        extras.append(f"{status['retries']} retried unit(s)")
    suffix = f" ({', '.join(extras)})" if extras else ""
    return (
        f"{status['id']}: {status['state']} "
        f"{status['completed']}/{status['total']} scenario(s), "
        f"{status['errors']} error(s){suffix}"
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError

    spec = {
        "families": [item for item in args.families.split(",") if item],
        "seeds": args.seeds,
        "profiles": [item for item in args.profiles.split(",") if item],
        "iip_ablation": args.iip_ablation,
    }
    try:
        spec["sizes"] = [int(item) for item in args.sizes.split(",") if item]
    except ValueError:
        print(f"error: invalid --sizes {args.sizes!r}", file=sys.stderr)
        return 2
    if args.roles is not None:
        spec["roles"] = args.roles
    if args.topo is not None:
        spec["topos"] = args.topo
    if args.place is not None:
        spec["places"] = args.place
    if args.shard_size is not None:
        spec["shard_size"] = args.shard_size
    client = ServiceClient(args.url)
    try:
        accepted = client.submit(spec)
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    campaign_id = accepted["id"]
    if args.quiet:
        print(campaign_id)
    else:
        print(
            f"submitted {campaign_id}: {accepted['total']} scenario(s) in "
            f"{accepted['units']} unit(s) of {accepted['shard_size']}"
        )
    if not args.wait:
        return 0
    try:
        status = client.wait(campaign_id, timeout_s=args.wait_timeout)
    except (ServiceError, OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(_render_campaign_status(status))
    return 0 if status["state"] == "done" else 1


def _render_service_health(health: dict) -> str:
    lines = [
        f"service v{health.get('version', '?')}: "
        f"up {health.get('uptime_s', 0.0):.1f}s, "
        f"{len(health.get('workers', []))} worker(s), "
        f"{health.get('campaigns', 0)} campaign(s)"
    ]
    for worker in health.get("workers", []):
        summary = worker.get("metrics") or {}
        lines.append(
            f"  worker {worker['slot']}: "
            f"{'alive' if worker.get('alive') else 'dead'}, "
            f"{worker.get('restarts', 0)} restart(s), "
            f"{summary.get('scenarios', 0)} scenario(s) in "
            f"{summary.get('scenario_time_s', 0.0):.2f}s, "
            f"{summary.get('cache_hits', 0)} cache hit(s)"
        )
    return "\n".join(lines)


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.metrics:
            print(client.metrics_text(), end="")
            return 0
        if args.id is None:
            health = client.health()
            campaigns = client.campaigns()["campaigns"]
            if args.json:
                print(json.dumps(
                    {"health": health, "campaigns": campaigns}, indent=2
                ))
                return 0
            print(_render_service_health(health))
            if not campaigns:
                print("no campaigns")
                return 0
            for status in campaigns:
                print(_render_campaign_status(status))
            return 0
        if args.wait:
            status = client.wait(args.id, timeout_s=args.wait_timeout)
        else:
            status = client.status(args.id)
    except (ServiceError, OSError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        print(_render_campaign_status(status))
        for unit in status["units"]:
            print(
                f"  unit {unit['unit']:3d}: {unit['state']:<8} "
                f"{unit['done']}/{unit['size']} done, "
                f"{unit['attempts']} attempt(s)"
            )
    return 1 if status["state"] == "failed" else 0


def _cmd_result(args: argparse.Namespace) -> int:
    import json

    from pathlib import Path

    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        payload = client.result(args.id)
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    progress = (
        "complete" if payload["complete"]
        else f"incomplete, state {payload['state']}"
    )
    print(
        f"{payload['id']}: {payload['scenarios']}/{payload['total']} "
        f"scenario(s) merged ({progress})"
    )
    summary = payload["summary"]
    if not args.quiet:
        for family, stats in summary["families"].items():
            leverage = stats["mean_leverage"]
            rendered = "n/a" if leverage is None else f"{leverage:.1f}X"
            print(
                f"  {family:>8}: {stats['verified']}/{stats['scenarios']} "
                f"verified, mean leverage {rendered}"
            )
    if args.json:
        # The exact bytes CampaignSummary.write_json emits — a service
        # result is interchangeable with a batch-CLI artifact.
        target = Path(args.json)
        target.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {target}")
    return 1 if summary["errors"] else 0


def _parse_budget(text: str) -> float:
    """A wall-clock budget: ``300``, ``300s``, or ``5m``."""
    raw = text.strip().lower()
    scale = 1.0
    if raw.endswith("m"):
        raw, scale = raw[:-1], 60.0
    elif raw.endswith("s"):
        raw = raw[:-1]
    try:
        seconds = float(raw) * scale
    except ValueError:
        raise ValueError(
            f"invalid --budget {text!r} (expected e.g. 300, 300s, or 5m)"
        ) from None
    if seconds <= 0:
        raise ValueError(f"--budget must be positive, got {text!r}")
    return seconds


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .experiments.campaign import CampaignInterrupted
    from .fuzz import FuzzConfig, run_fuzz
    from .fuzz.corpus import corpus_files, replay_file

    if args.replay:
        # The checked-in corpus, found from the package, not the cwd.
        repository = Path(__file__).resolve().parents[2]
        corpus = args.corpus or repository / DEFAULT_FUZZ_CORPUS
        files = corpus_files(corpus)
        if not files:
            print(f"fuzz: no corpus files under {corpus}", file=sys.stderr)
            return 1
        failures = 0
        for path in files:
            try:
                mismatch = replay_file(path)
            except ValueError as exc:
                # A stale record (unknown or retired toggle, not a
                # repro file, malformed JSON) cannot be replayed.
                mismatch = f"cannot replay: {exc}"
            if mismatch is None:
                if not args.quiet:
                    print(f"  ok   {path.name}")
            else:
                failures += 1
                print(f"  FAIL {path.name}: {mismatch}")
        print(
            f"fuzz replay: {len(files)} corpus file(s), "
            f"{failures} failure(s)"
        )
        return 1 if failures else 0

    budget_s = None
    if args.budget is not None:
        try:
            budget_s = _parse_budget(args.budget)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.iterations is None and budget_s is None:
        print(
            "error: fuzz needs --iterations N or --budget TIME",
            file=sys.stderr,
        )
        return 2

    explicit_journal = args.journal is not None
    journal_arg = args.journal if explicit_journal else DEFAULT_FUZZ_JOURNAL
    journal = None if journal_arg in ("", "-") else journal_arg
    resume = False
    if args.resume:
        if explicit_journal and journal != args.resume:
            print(
                f"error: --journal {journal_arg} conflicts with --resume "
                f"{args.resume}; a resumed fuzz run appends to the journal "
                f"it resumes from",
                file=sys.stderr,
            )
            return 2
        journal = args.resume
        resume = True

    config = FuzzConfig(
        fuzz_seed=args.fuzz_seed,
        iterations=args.iterations,
        budget_s=budget_s,
        workers=args.workers,
        corpus_dir=args.corpus or DEFAULT_FUZZ_CORPUS,
        planted=tuple(args.plant or ()),
    )
    try:
        summary = run_fuzz(config, journal_path=journal, resume=resume)
    except CampaignInterrupted as exc:  # names the --resume invocation
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.quiet:
        lines = summary.render().splitlines()
        print(lines[-1] if not summary.corpus_written else "\n".join(
            lines[-1 - len(summary.corpus_written):]
        ))
    else:
        print(summary.render())
    return 1 if summary.mismatches else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from pathlib import Path

    from .analysis import analyze_configs, run_validation

    if args.validate:
        # The harness fixes its own grid: any single-cell flag would be
        # inert, so reject non-defaults rather than let them look like
        # they scoped the validation.
        defaults = build_parser().parse_args(["lint", "--validate"])
        conflicting = [
            flag
            for flag, given in (
                ("--family", args.family != defaults.family),
                ("--routers", args.routers != defaults.routers),
                ("--topo-seed", args.topo_seed != defaults.topo_seed),
                ("--roles", args.roles is not None),
                ("--topo", args.topo is not None),
                ("--place", args.place is not None),
                ("--fault", args.fault is not None),
            )
            if given
        ]
        if conflicting:
            print(
                f"error: --validate runs the fixed nine-cell harness and "
                f"cannot be combined with {', '.join(conflicting)}",
                file=sys.stderr,
            )
            return 2
        report = run_validation()
        payload = report.to_dict()
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(report.render_text())
        if args.out:
            target = Path(args.out)
            target.write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote {target}", file=sys.stderr)
        return 0 if report.ok else 1

    from .cisco.generator import generate_cisco
    from .topology.families import generate_network
    from .topology.reference import build_reference_configs

    try:
        network = generate_network(
            args.family,
            args.routers,
            seed=args.topo_seed,
            roles=args.roles,
            params=args.topo,
            place=args.place,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    topology = network.topology
    configs = dict(build_reference_configs(topology))
    texts = {name: generate_cisco(config) for name, config in configs.items()}

    if args.fault is not None:
        from .llm.faults import DraftState, FaultTargetError
        from .llm.synthesis_faults import (
            fault_designations,
            synthesis_fault_catalog,
        )

        catalog = synthesis_fault_catalog(topology)
        designations = fault_designations(topology)
        if args.fault not in catalog:
            known = ", ".join(sorted(catalog))
            print(
                f"error: unknown fault {args.fault!r} (known: {known})",
                file=sys.stderr,
            )
            return 2
        router = designations.get(args.fault)
        if router is None or router not in configs:
            print(
                f"error: fault {args.fault!r} has no designated router "
                f"on this topology",
                file=sys.stderr,
            )
            return 2
        state = DraftState(configs[router], generate_cisco)
        state.inject(catalog[args.fault])
        try:
            configs[router] = state.current_config()
            texts[router] = state.render()
        except FaultTargetError as exc:
            print(
                f"error: fault {args.fault!r} found no target on "
                f"{router}: {exc}",
                file=sys.stderr,
            )
            return 2

    report = analyze_configs(configs, topology=topology, texts=texts)
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(report.render_text())
    if args.out:
        target = Path(args.out)
        target.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {target}", file=sys.stderr)
    return 1 if report.high else 0


if __name__ == "__main__":
    sys.exit(main())
