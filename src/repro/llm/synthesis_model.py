"""Factory for the per-router synthesis simulated GPT-4 (§4).

§4.1: "We asked GPT-4 to generate configs for each router using a new
prompt each time" — so synthesis uses one chat session (one
:class:`SimulatedGPT4`) per router.  The factory applies the IIP
suppression rule: faults whose IIP is supplied never appear in the
initial draft (§4.2's before/after).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..cisco import generate_cisco
from ..netmodel.device import RouterConfig
from ..symbolic.memo import MemoCache
from ..topology.model import Topology
from ..topology.reference import build_reference_configs
from .behavior import BehaviorProfile
from .faults import Fault
from .simulated import SimulatedGPT4
from .synthesis_faults import (
    IIP_SUPPRESSED_FAULTS,
    SYNTHESIS_SIDE_POOL,
    fault_assignment,
    synthesis_fault_catalog,
)

__all__ = ["make_synthesis_models"]

# Per-topology set-up, keyed on id(topology); each entry holds the
# topology, so its id cannot be reused while the entry lives.  Reuse is
# local in grid order (every scenario of one network cell is adjacent).
_SETUP_MEMO = MemoCache("synthesis-setup", max_entries=16)


def _setup(topology: Topology) -> Tuple[Dict[str, RouterConfig], Dict[str, Fault]]:
    """The topology's reference configs and fault catalog, shared by
    every session on it and read-only: a caller that edits one edits an
    :func:`~repro.netmodel.value.ir_copy`."""
    hit, entry = _SETUP_MEMO.lookup(id(topology))
    if not hit:
        references = build_reference_configs(topology)
        entry = (topology, references, synthesis_fault_catalog(topology))
        _SETUP_MEMO.store(id(topology), entry)
    return entry[1], entry[2]


def make_synthesis_models(
    topology: Topology,
    iip_ids: Iterable[str] = (),
    seed: int = 0,
    profile: Optional[BehaviorProfile] = None,
    assignment: Optional[Dict[str, List[str]]] = None,
) -> Dict[str, SimulatedGPT4]:
    """One session per router, keyed by router name.

    The reference configs and the fault catalog are built once per
    topology object and shared by every session of every call on it, so
    scenarios on one shared network (see
    :func:`~repro.experiments.no_transit.materialize_network`) render
    identical drafts from the process-wide render memo.  Sessions never
    mutate either: drafts copy their reference before faulting it.
    """
    references, catalog = _setup(topology)
    active_iips = set(iip_ids)
    defaults: Optional[Dict[str, List[str]]] = None
    models: Dict[str, SimulatedGPT4] = {}
    for name in topology.router_names():
        fault_keys = assignment.get(name) if assignment is not None else None
        if fault_keys is None:
            if defaults is None:
                defaults = fault_assignment(topology)
            fault_keys = defaults.get(name, [])
        models[name] = _session(
            name, references[name], catalog, fault_keys, active_iips, seed,
            profile,
        )
    return models


def _session(
    router_name: str,
    reference: RouterConfig,
    catalog: Dict[str, Fault],
    fault_keys: Sequence[str],
    active_iips: Set[str],
    seed: int,
    profile: Optional[BehaviorProfile],
) -> SimulatedGPT4:
    """The session for one router; IIP-suppressed faults are dropped."""
    filtered = [
        key
        for key in fault_keys
        if IIP_SUPPRESSED_FAULTS.get(key) not in active_iips
    ]
    return SimulatedGPT4(
        catalog=catalog,
        reference=reference,
        renderer=generate_cisco,
        initial_fault_keys=filtered,
        side_pool_keys=SYNTHESIS_SIDE_POOL,
        seed=seed + _router_seed_offset(router_name),
        profile=profile,
    )


def _router_seed_offset(router_name: str) -> int:
    """Distinct per-router RNG streams under one experiment seed."""
    digits = "".join(char for char in router_name if char.isdigit())
    return int(digits) * 1009 if digits else 0
