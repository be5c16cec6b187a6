"""Batfish substitute: snapshots with per-file parse warnings, and BGP
control-plane simulation.  Symbolic route-policy search lives in
:mod:`repro.symbolic`.
"""

from .bgpsim import (
    BgpSession,
    BgpSimulation,
    ResimStats,
    RibEntry,
    SimulationState,
    incremental_simulation_enabled,
    reset_sim_stats,
    set_incremental_simulation,
    sim_totals,
)
from .snapshot import Snapshot, detect_vendor

__all__ = [
    "BgpSession",
    "BgpSimulation",
    "ResimStats",
    "RibEntry",
    "SimulationState",
    "Snapshot",
    "detect_vendor",
    "incremental_simulation_enabled",
    "reset_sim_stats",
    "set_incremental_simulation",
    "sim_totals",
]
