"""The benchmark's three workloads: inputs from a seed, timed passes, oracles.

Each workload is a fixed set of inputs generated from the workload seed.
A *pass* runs every input once as a closed loop (the next scenario or
check starts only when the previous one returned) after resetting the
process-local caches and simulation states, as a fresh process would
find them.  An untraced pass probes the host's speed before its first
operation and after each one (``hostclock``), and keeps each operation's
scale; the probes are not part of the pass's time.  Oracles run after a
pass, outside its timed region.

The workloads reach the program only through its public entry points:
``run_campaign``, ``run_translation_experiment`` and
``check_global_no_transit`` with an ``IncrementalGlobalChecker``.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.batfish import reset_sim_stats, sim_totals
from repro.core import toggles
from repro.experiments import no_transit
from repro.experiments.campaign import (
    PROFILES,
    Scenario,
    build_grid,
    run_campaign,
    set_campaign_lint,
)
from repro.experiments.translation import run_translation_experiment
from repro.lightyear import compose
from repro.lightyear.compose import IncrementalGlobalChecker, reset_simulation_states
from repro.symbolic.memo import cache_totals, reset_caches
from repro.topology import reference

from hostclock import HostClock
from spans import Tracer, patched
from stats import Tally

PROFILE_NAMES = ("default", "sloppy")

# nt-grid: the ROADMAP Baseline mix.  Each workload seed owns
# NT_SEEDS consecutive seed indices: 28 scenarios per index.
NT_FIXED_FAMILIES = ("star", "chain", "ring", "mesh", "dumbbell")
NT_FIXED_SIZES = (6, 10)
NT_ROLED_FAMILIES = ("random", "waxman")
NT_ROLED_SIZE = 10
NT_ROLES = ("c2i3h2", "c2i2h2p1")
NT_SEEDS = 4

# translate: TRANSLATE_SEEDS experiment seeds per workload seed, each
# under both profiles.
TRANSLATE_SEEDS = 50

# converge-scale: (label, family, size, role spec, edits).  The graphs
# are fixed; the seed picks the mesh victims and every edit order.
# Delta checks cluster by network (waxman-22 and random-22 ~10-30 ms,
# mesh-18 ~100-200 ms, mesh-22 ~250-450 ms).  The edit counts weight
# the mixture so its median lies inside the small-network cluster (ranks
# 1-72 of 100, whose edit mix is the same for every seed) and its p90
# inside the mesh-18 one (ranks 73-96), never on a gap between clusters.
CONVERGE_NETWORKS = (
    ("mesh-18", "mesh", 18, None, 24),
    ("mesh-22", "mesh", 22, None, 4),
    ("waxman-22", "waxman", 22, "c2i3h2", 12),
    ("random-22", "random", 22, "c2i2h2p1", 60),
)
CONVERGE_VICTIMS = 6  # most border routers per network that edits break
EGRESS_FILTER_PREFIX = "FILTER_COMM_OUT_"

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def digest(payload: object) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def expected_digests() -> Dict[str, Dict[str, str]]:
    """Recorded result digests, ``{kind: {seed: sha256}}``."""
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def fresh_process_state() -> None:
    """Drop every process-local cache and warm simulation state, and
    collect what they held."""
    reset_caches()
    reset_simulation_states()
    reset_sim_stats()
    gc.collect()


@dataclass
class PassResult:
    """What one timed pass measured, plus what its oracle needs."""

    wall_s: float
    ops: int  # operations counted in the throughput
    latencies_ms: List[float]  # scenarios, or delta checks
    full_ms: List[float] = field(default_factory=list)  # full checks
    verified: int = 0  # ops that verified (or whose verdict holds)
    leverages: List[float] = field(default_factory=list)
    digest: Optional[str] = None
    outcomes: list = field(default_factory=list)  # oracle input
    counters: Dict[str, float] = field(default_factory=dict)
    # Host speed scale of each latency (hostclock); empty when untimed.
    latency_scales: List[float] = field(default_factory=list)
    full_scales: List[float] = field(default_factory=list)


def after_op(clock: Optional[HostClock]) -> float:
    """Probe the host after an operation; return the operation's scale."""
    if clock is None:
        return 1.0
    clock.probe()
    return clock.last_scale()


class Workload:
    name = ""
    digest_kind: Optional[str] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._first_digest: Optional[str] = None

    def run_pass(self, tracer: Optional[Tracer] = None) -> PassResult:
        """One pass over every input.  An untraced pass probes the host
        and leaves the probe time out of ``wall_s``."""
        fresh_process_state()
        clock = None
        if tracer is None:
            clock = HostClock()
            clock.probe()
        probed_s = clock.spent_s if clock is not None else 0.0
        result = self._run_pass(tracer, clock)
        if clock is not None:
            result.wall_s -= clock.spent_s - probed_s
        return result

    def _run_pass(
        self, tracer: Optional[Tracer], clock: Optional[HostClock]
    ) -> PassResult:
        raise NotImplementedError

    def root_bindings(self, tracer: Tracer) -> list:
        """Extra patch bindings that open this workload's root spans."""
        return []

    def verify(self, result: PassResult, tally: Tally) -> None:
        raise NotImplementedError

    def _check_digest(self, result: PassResult, tally: Tally) -> None:
        """Every pass must match the first, and the first must match the
        digest recorded for this seed, when one is recorded."""
        if result.digest is None:
            return
        if self._first_digest is None:
            self._first_digest = result.digest
            recorded = expected_digests().get(self.digest_kind or "", {})
            expected = recorded.get(str(self.seed))
            if expected is not None:
                tally.check(
                    result.digest == expected,
                    f"{self.name}: result digest {result.digest[:12]} differs "
                    f"from the one recorded for seed {self.seed} "
                    f"({expected[:12]})",
                )
        else:
            tally.check(
                result.digest == self._first_digest,
                f"{self.name}: pass results differ between passes",
            )


# -- nt-grid -------------------------------------------------------------------


def nt_scenarios(seed: int) -> List[Scenario]:
    """The Baseline grid for one workload seed (112 scenarios)."""
    fixed = build_grid(
        NT_FIXED_FAMILIES, NT_FIXED_SIZES, NT_SEEDS, profiles=PROFILE_NAMES
    )
    roled = build_grid(
        NT_ROLED_FAMILIES,
        (NT_ROLED_SIZE,),
        NT_SEEDS,
        profiles=PROFILE_NAMES,
        roles=NT_ROLES,
    )
    base = seed * NT_SEEDS
    return [replace(scenario, seed=scenario.seed + base) for scenario in fixed + roled]


class NtGrid(Workload):
    """A serial campaign over the Baseline grid with lint on."""

    name = "nt-grid"
    digest_kind = "nt"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed)
        self.scenarios = nt_scenarios(seed)
        set_campaign_lint(True)

    def root_bindings(self, tracer: Tracer) -> list:
        def wrap_execute(original: Callable) -> Callable:
            def execute_scenario(scenario, network=None):
                with tracer.root(f"scenario:{scenario.key()}", "scenario"):
                    return original(scenario, network)

            return execute_scenario

        return [("repro.experiments.campaign", "execute_scenario", wrap_execute)]

    def _run_pass(
        self, tracer: Optional[Tracer], clock: Optional[HostClock]
    ) -> PassResult:
        scales: Dict[str, float] = {}

        def wrap_execute(original: Callable) -> Callable:
            def execute_scenario(scenario, network=None):
                # Scenario latency is measured inside the original.
                record = original(scenario, network)
                scales[scenario.key()] = after_op(clock)
                return record

            return execute_scenario

        probes = patched(
            [("repro.experiments.campaign", "execute_scenario", wrap_execute)]
        ) if clock is not None else nullcontext()
        with probes:
            started = time.perf_counter()
            summary = run_campaign(self.scenarios, workers=1)
            wall_s = time.perf_counter() - started
        rows = summary.rows
        good = [row for row in rows if row.error is None]
        return PassResult(
            wall_s=wall_s,
            ops=len(rows),
            latencies_ms=[1000.0 * row.duration_s for row in rows],
            verified=sum(1 for row in good if row.verified),
            leverages=[
                math.inf if row.leverage is None else row.leverage
                for row in good
            ],
            digest=digest(summary.to_dict()),
            outcomes=rows,
            latency_scales=[
                scales[scenario.key()] for scenario in self.scenarios
            ] if clock is not None else [],
            counters={
                "memo_hits": summary.cache_hits,
                "memo_misses": summary.cache_misses,
                "full_runs": summary.sim_full_runs,
                "incremental_runs": summary.sim_incremental_runs,
                "evaluations": summary.sim_full_evals
                + summary.sim_incremental_evals,
            },
        )

    def verify(self, result: PassResult, tally: Tally) -> None:
        rows = result.outcomes
        tally.attempt(len(self.scenarios))
        tally.check(
            len(rows) == len(self.scenarios),
            f"{self.name}: {len(rows)} rows for {len(self.scenarios)} scenarios",
        )
        for scenario, row in zip(self.scenarios, rows):
            key = scenario.key()
            if row.error is not None:
                tally.fail(f"{key}: error row: {row.error}")
            elif row.verified:
                tally.check(
                    row.global_ok and row.roles_ok == row.roles_total,
                    f"{key}: verified but global_ok={row.global_ok} "
                    f"roles {row.roles_ok}/{row.roles_total}",
                )
        self._check_digest(result, tally)


# -- translate -----------------------------------------------------------------


def translate_inputs(seed: int) -> List[Tuple[int, str]]:
    base = seed * TRANSLATE_SEEDS
    return [
        (experiment_seed, profile)
        for experiment_seed in range(base, base + TRANSLATE_SEEDS)
        for profile in PROFILE_NAMES
    ]


class Translate(Workload):
    name = "translate"
    digest_kind = "translate"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed)
        self.inputs = translate_inputs(seed)

    def _run_pass(
        self, tracer: Optional[Tracer], clock: Optional[HostClock]
    ) -> PassResult:
        latencies: List[float] = []
        scales: List[float] = []
        outcomes = []
        started = time.perf_counter()
        for experiment_seed, profile in self.inputs:
            began = time.perf_counter()
            if tracer is None:
                experiment = run_translation_experiment(
                    seed=experiment_seed, profile=PROFILES[profile]
                )
            else:
                with tracer.root(
                    f"translate:{experiment_seed}:{profile}", "scenario"
                ):
                    experiment = run_translation_experiment(
                        seed=experiment_seed, profile=PROFILES[profile]
                    )
            latencies.append(1000.0 * (time.perf_counter() - began))
            outcomes.append(experiment.result)
            scales.append(after_op(clock))
        wall_s = time.perf_counter() - started
        hits, misses = cache_totals()
        return PassResult(
            wall_s=wall_s,
            ops=len(self.inputs),
            latencies_ms=latencies,
            verified=sum(1 for result in outcomes if result.verified),
            leverages=[result.leverage for result in outcomes],
            digest=digest([
                [seed, profile, result.verified, result.prompt_log.automated,
                 result.prompt_log.human]
                for (seed, profile), result in zip(self.inputs, outcomes)
            ]),
            outcomes=outcomes,
            counters={"memo_hits": hits, "memo_misses": misses},
            latency_scales=scales if clock is not None else [],
        )

    def verify(self, result: PassResult, tally: Tally) -> None:
        from repro.campion import compare_configs
        from repro.juniper import parse_juniper
        from repro.sampleconfigs import load_translation_source

        tally.attempt(len(self.inputs))
        if self._first_digest is not None:
            # Later passes must reproduce the first (checked below), so
            # the first pass's texts stand for theirs.
            self._check_digest(result, tally)
            return
        source = load_translation_source()
        for (seed, profile), run in zip(self.inputs, result.outcomes):
            if not run.verified:
                continue
            parsed = parse_juniper(run.final_text, filename="translation.conf")
            if not tally.check(
                not parsed.warnings,
                f"translate {seed}/{profile}: verified text parses with "
                f"{len(parsed.warnings)} warning(s)",
            ):
                continue
            report = compare_configs(
                source, parsed.config, stop_at_first_class=False
            )
            tally.check(
                report.clean,
                f"translate {seed}/{profile}: verified text differs from "
                f"the source: {report.summary()}",
            )
        self._check_digest(result, tally)


# -- converge-scale ------------------------------------------------------------


def strip_egress_filters(config):
    """A copy of ``config`` whose external sessions export unfiltered."""
    broken = copy.deepcopy(config)
    for neighbor in broken.bgp.neighbors.values():
        if (neighbor.export_policy or "").startswith(EGRESS_FILTER_PREFIX):
            neighbor.export_policy = None
    return broken


@dataclass
class ConvergeNetwork:
    label: str
    topology: object
    pristine: Dict[str, object]
    broken: Dict[str, object]  # victim router -> its filter-stripped config
    edits: List[Tuple[str, bool]]  # (router, breaking), alternating


def converge_networks(seed: int) -> List[ConvergeNetwork]:
    """Reference configs and seeded edit sequences for one workload seed."""
    networks = []
    for label, family, size, roles, edits in CONVERGE_NETWORKS:
        rng = random.Random(f"converge-scale:{seed}:{label}")
        network = no_transit.materialize_network(family, size, roles=roles)
        pristine = reference.build_reference_configs(network.topology)
        border = sorted(
            name
            for name, config in pristine.items()
            if config.bgp is not None
            and any(
                (neighbor.export_policy or "").startswith(EGRESS_FILTER_PREFIX)
                for neighbor in config.bgp.neighbors.values()
            )
        )
        victims = rng.sample(border, min(CONVERGE_VICTIMS, len(border)))
        # Each victim is broken and repaired equally often, in seeded
        # order, so a network's edit mix does not change with the seed.
        order: List[str] = []
        while len(order) < edits // 2:
            order += rng.sample(victims, len(victims))
        sequence: List[Tuple[str, bool]] = []
        for victim in order[: edits // 2]:
            sequence += [(victim, True), (victim, False)]
        networks.append(
            ConvergeNetwork(
                label=label,
                topology=network.topology,
                pristine=pristine,
                broken={name: strip_egress_filters(pristine[name]) for name in victims},
                edits=sequence,
            )
        )
    return networks


class ConvergeScale(Workload):
    name = "converge-scale"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed)
        self.networks = converge_networks(seed)
        # (network label, broken routers) -> the reference verdict.
        self._oracle: Dict[Tuple[str, FrozenSet[str]], object] = {}

    def _check(self, tracer, trace_id, configs, topology, checker, changed):
        if tracer is None:
            return compose.check_global_no_transit(
                configs, topology, checker=checker, changed_routers=changed
            )
        with tracer.root(trace_id, "check"):
            return compose.check_global_no_transit(
                configs, topology, checker=checker, changed_routers=changed
            )

    def _run_pass(
        self, tracer: Optional[Tracer], clock: Optional[HostClock]
    ) -> PassResult:
        deltas: List[float] = []
        fulls: List[float] = []
        delta_scales: List[float] = []
        full_scales: List[float] = []
        outcomes = []
        started = time.perf_counter()
        for network in self.networks:
            checker = IncrementalGlobalChecker()
            configs = dict(network.pristine)
            broken: FrozenSet[str] = frozenset()
            began = time.perf_counter()
            result = self._check(
                tracer, f"{network.label}:full", dict(configs),
                network.topology, checker, None,
            )
            fulls.append(1000.0 * (time.perf_counter() - began))
            outcomes.append((network.label, broken, result))
            full_scales.append(after_op(clock))
            for step, (router, breaking) in enumerate(network.edits):
                if breaking:
                    configs[router] = network.broken[router]
                    broken = broken | {router}
                else:
                    configs[router] = network.pristine[router]
                    broken = broken - {router}
                snapshot = dict(configs)
                began = time.perf_counter()
                result = self._check(
                    tracer, f"{network.label}:edit{step}", snapshot,
                    network.topology, checker, {router},
                )
                deltas.append(1000.0 * (time.perf_counter() - began))
                outcomes.append((network.label, broken, result))
                delta_scales.append(after_op(clock))
        wall_s = time.perf_counter() - started
        totals = sim_totals()
        hits, misses = cache_totals()
        return PassResult(
            wall_s=wall_s,
            ops=len(fulls) + len(deltas),
            latencies_ms=deltas,
            full_ms=fulls,
            verified=sum(1 for _, _, result in outcomes if result.holds),
            outcomes=outcomes,
            counters={
                "memo_hits": hits,
                "memo_misses": misses,
                "full_runs": totals["full_runs"],
                "incremental_runs": totals["incremental_runs"],
                "evaluations": totals["full_evaluations"]
                + totals["incremental_evaluations"],
            },
            latency_scales=delta_scales if clock is not None else [],
            full_scales=full_scales if clock is not None else [],
        )

    def _reference_verdict(self, network: ConvergeNetwork, broken: FrozenSet[str]):
        """The verdict of a fresh full convergence: no checker, and
        incremental simulation off.  Convergence is deterministic, so
        one verdict per distinct configuration state serves every check
        of that state."""
        key = (network.label, broken)
        if key not in self._oracle:
            configs = dict(network.pristine)
            configs.update({name: network.broken[name] for name in broken})
            with toggles.scoped(incremental_simulation=False):
                self._oracle[key] = compose.check_global_no_transit(
                    configs, network.topology
                )
        return self._oracle[key]

    def verify(self, result: PassResult, tally: Tally) -> None:
        by_label = {network.label: network for network in self.networks}
        tally.attempt(len(result.outcomes))
        for label, broken, verdict in result.outcomes:
            state = f"{label} broken={sorted(broken)}"
            expected = self._reference_verdict(by_label[label], broken)
            if not tally.check(
                verdict == expected,
                f"{state}: incremental verdict differs from full convergence",
            ):
                continue
            # A vacuous edit would time a check that proves nothing.
            tally.check(
                verdict.holds == (not broken),
                f"{state}: verdict holds={verdict.holds}",
            )


WORKLOADS: Dict[str, Callable[[int, Path], Workload]] = {
    "nt-grid": NtGrid,
    "translate": Translate,
    "converge-scale": ConvergeScale,
}

#: Layers that must record calls in each workload's traced pass; a
#: rename that silently zeroes one fails the traced run.
REQUIRED_LAYERS: Dict[str, Sequence[str]] = {
    "nt-grid": (
        "cisco.parse", "llm.render", "llm.send", "llm.catalog",
        "topology.roles", "topology.reference", "topology.generate",
        "topology.verify", "lightyear.local_verify", "core.compose",
        "core.modularize", "analysis.lint", "lightyear.global_check",
        "batfish.state", "batfish.converge",
    ),
    "translate": (
        "llm.render", "llm.send", "llm.catalog", "juniper.parse",
        "campion.compare",
    ),
    "converge-scale": (
        "topology.roles", "topology.reference", "topology.generate",
        "lightyear.global_check", "batfish.state", "batfish.converge",
    ),
}
