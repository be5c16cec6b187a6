"""Experiment driver for use case 2: no-transit local synthesis (§4).

Regenerates the §4.2 leverage measurement (≈12 automated vs 2 human →
~6X) on the 7-router star of Figure 4, and supports arbitrary star
sizes for the scaling extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import (
    DEFAULT_IIP_IDS,
    LoopLimits,
    ScriptedHuman,
    SynthesisOrchestrator,
    SynthesisRunResult,
)
from ..llm import BehaviorProfile, SimulatedGPT4, make_synthesis_models

# Unused here since sessions share one catalog, but perfbench's tracer
# patches the catalog layer through this binding.
from ..llm import synthesis_fault_catalog  # noqa: F401
from ..obs import span
from ..symbolic.memo import MemoCache
from ..topology import StarNetwork, generate_network, generate_star_network
from ..topology.families import SEEDED_FAMILIES, check_fixed_layout, check_size

__all__ = [
    "NoTransitExperiment",
    "materialize_network",
    "run_no_transit_experiment",
]

DEFAULT_ROUTER_COUNT = 7  # Figure 4's star

# Networks by coordinate tuple.  Sharing one network object lets every
# scenario of a cell share its per-topology set-up and rendered drafts.
_NETWORK_MEMO = MemoCache("network", max_entries=16)


@dataclass
class NoTransitExperiment:
    """A completed synthesis run plus the per-router models."""

    result: SynthesisRunResult
    models: Dict[str, SimulatedGPT4]
    star: "StarNetwork"  # a GeneratedNetwork for non-star families
    seed: int
    iip_ids: Sequence[str]
    family: str = "star"

    @property
    def network(self):
        """Family-neutral alias for the generated network."""
        return self.star

    @property
    def leverage(self) -> float:
        return self.result.leverage

    @property
    def automated_prompts(self) -> int:
        return self.result.prompt_log.automated

    @property
    def human_prompts(self) -> int:
        return self.result.prompt_log.human

    def initial_draft_fault_counts(self) -> Dict[str, int]:
        """How many faults each router's first draft carried (before any
        correction) — reconstructed from resolutions plus leftovers."""
        counts: Dict[str, int] = {}
        for name, model in self.models.items():
            resolved = {key for key, _ in model.resolution_log}
            counts[name] = len(resolved | set(model.active_fault_keys()))
        return counts


def materialize_network(
    family: str = "star",
    router_count: int = DEFAULT_ROUTER_COUNT,
    roles: Optional[str] = None,
    topo: Optional[str] = None,
    topology_seed: int = 0,
    place: Optional[str] = None,
):
    """Generate the network for a coordinate tuple.

    This is the single point where (family, size, roles, knobs, seed,
    placement) coordinates become a concrete ``StarNetwork`` /
    ``GeneratedNetwork`` — byte-deterministic, so a campaign worker
    given only the coordinates rebuilds exactly the configs any other
    process would.

    Memoized on the coordinate tuple: calls with equal coordinates share
    one network, which is read-only (a caller that edits its topology
    edits an :func:`~repro.netmodel.value.ir_copy`).
    """
    if family not in SEEDED_FAMILIES:
        topology_seed = 0  # the hand-shaped families ignore it
    key = (family, router_count, roles, topo, topology_seed, place)
    hit, network = _NETWORK_MEMO.lookup(key)
    if not hit:
        network = _generate(*key)
        _NETWORK_MEMO.store(key, network)
    return network


def _generate(family, router_count, roles, topo, topology_seed, place):
    if family == "star":
        # The star keeps its dedicated generator (hub-policy layout) but
        # honours the same contract as the other fixed-layout families.
        check_fixed_layout("star", roles, topo, place)
        check_size("star", router_count)
        return generate_star_network(router_count)
    return generate_network(
        family,
        router_count,
        seed=topology_seed,
        roles=roles,
        params=topo,
        place=place,
    )


def run_no_transit_experiment(
    router_count: int = DEFAULT_ROUTER_COUNT,
    seed: int = 0,
    iip_ids: Sequence[str] = DEFAULT_IIP_IDS,
    profile: Optional[BehaviorProfile] = None,
    limits: Optional[LoopLimits] = None,
    pair_programming: bool = False,
    assignment: Optional[Dict[str, List[str]]] = None,
    family: str = "star",
    roles: Optional[str] = None,
    topo: Optional[str] = None,
    topology_seed: int = 0,
    place: Optional[str] = None,
    network=None,
) -> NoTransitExperiment:
    """Run the full §4 loop once and return everything measured.

    ``family`` selects the topology generator (star, chain, ring, mesh,
    dumbbell, random, waxman); the star keeps the paper's exact setup.
    For the seeded families, ``topology_seed`` picks the graph, while
    ``roles`` (a role spec such as ``c2i3h2``), ``topo`` (family knobs
    such as ``p=0.4`` or ``alpha=0.5,beta=0.7``), and ``place`` (role
    placement: ``seeded`` or ``degree``) shape what gets placed on it.

    Pass ``network`` (a pre-materialized :func:`materialize_network`
    result for the same coordinates) to skip generation and run on a
    network the caller already built.
    """
    if network is None:
        with span("generate", family=family, size=router_count):
            star = materialize_network(
                family,
                router_count,
                roles=roles,
                topo=topo,
                topology_seed=topology_seed,
                place=place,
            )
    else:
        star = network
    with span("synthesize", family=family, size=router_count):
        models = make_synthesis_models(
            star.topology,
            iip_ids=iip_ids,
            seed=seed,
            profile=profile,
            assignment=assignment,
        )
        # Every session holds the topology's one shared catalog.
        human = ScriptedHuman.for_model(next(iter(models.values())))
        orchestrator = SynthesisOrchestrator(
            star.topology,
            models,
            human=human,
            limits=limits,
            iip_ids=iip_ids,
            pair_programming=pair_programming,
        )
        result = orchestrator.run()
    return NoTransitExperiment(
        result=result,
        models=models,
        star=star,
        seed=seed,
        iip_ids=list(iip_ids),
        family=family,
    )
