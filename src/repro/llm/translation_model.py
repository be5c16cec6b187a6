"""Factory for the translation-task simulated GPT-4 (§3)."""

from __future__ import annotations

from typing import Optional, Sequence

from ..sampleconfigs import load_translation_source
from ..juniper import generate_juniper, translate_cisco_to_juniper
from ..netmodel.device import RouterConfig
from ..symbolic.memo import MemoCache
from .behavior import BehaviorProfile
from .simulated import SimulatedGPT4
from .translation_faults import (
    DEFAULT_INITIAL_FAULTS,
    SIDE_POOL_FAULTS,
    translation_fault_catalog,
)

__all__ = ["make_translation_model", "reference_translation"]


# Reference translations keyed on id(source); each entry holds the
# source, so its id cannot be reused while the entry lives.
_REFERENCE_MEMO = MemoCache("reference-translation", max_entries=8)


def reference_translation(source: Optional[RouterConfig] = None) -> RouterConfig:
    """The correct Juniper translation the fault model perturbs.

    Memoized on the identity of ``source``, so every chat over the one
    shared source parse shares one read-only pristine (and its rendered
    drafts); a caller that edits it edits an
    :func:`~repro.netmodel.value.ir_copy`.
    """
    if source is None:
        source = load_translation_source()
    hit, entry = _REFERENCE_MEMO.lookup(id(source))
    if not hit:
        entry = (source, translate_cisco_to_juniper(source)[0])
        _REFERENCE_MEMO.store(id(source), entry)
    return entry[1]


def make_translation_model(
    seed: int = 0,
    profile: Optional[BehaviorProfile] = None,
    initial_faults: Sequence[str] = DEFAULT_INITIAL_FAULTS,
    source: Optional[RouterConfig] = None,
) -> SimulatedGPT4:
    """A chat session primed for "translate this Cisco config to Juniper".

    ``initial_faults`` defaults to the full Table 2 set; experiments can
    narrow it (e.g. one fault at a time for the per-row bench).
    """
    return SimulatedGPT4(
        catalog=translation_fault_catalog(),
        reference=reference_translation(source),
        renderer=generate_juniper,
        initial_fault_keys=initial_faults,
        side_pool_keys=SIDE_POOL_FAULTS,
        seed=seed,
        profile=profile,
    )
