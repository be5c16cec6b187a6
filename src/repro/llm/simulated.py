"""The simulated GPT-4: a draft generator with a calibrated fault model.

The paper could not script the real GPT-4 ("we have not been able to
access the APIs, and so manually simulated the API calls").  This class
plays GPT-4's role mechanically so the COSYNTH loop can actually run:

* the first prompt of a chat yields a draft — the correct reference
  configuration perturbed by the task's initial fault set;
* each later prompt is matched against the active faults' signatures;
  a match triggers the §3.2 behaviour distribution (fix / no change /
  fix-but-introduce-a-new-error / fix-but-regress-an-old-fix);
* faults marked unfixable-by-generated-prompt ignore generated prompts
  ("it usually does nothing when asked to fix the error") and yield only
  to their documented human prompt, possibly transitioning to a
  successor fault (the ``ge 24`` → ``1.2.3.0/24-32`` story).

Any real :class:`~repro.llm.client.LLMClient` can replace this class in
the orchestrator unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..netmodel.device import RouterConfig
from .behavior import BehaviorProfile, CorrectionOutcome, sample_outcome
from .client import ChatTranscript
from .faults import DraftState, Fault

__all__ = ["CorrectionStats", "SimulatedGPT4"]


@dataclass
class CorrectionStats:
    """Counters over one chat, used by tests and the Table 2 bench."""

    drafts: int = 0
    fixes: int = 0
    human_fixes: int = 0
    no_changes: int = 0
    stubborn_no_changes: int = 0  # unfixable fault ignored a generated prompt
    new_errors: int = 0
    regressions: int = 0
    unmatched: int = 0


class SimulatedGPT4:
    """One chat session of the simulated model."""

    def __init__(
        self,
        catalog: Dict[str, Fault],
        reference: RouterConfig,
        renderer: Callable[[RouterConfig], str],
        initial_fault_keys: Sequence[str],
        side_pool_keys: Sequence[str] = (),
        seed: int = 0,
        profile: Optional[BehaviorProfile] = None,
    ) -> None:
        self._catalog = catalog
        self._reference = reference
        self._renderer = renderer
        self._initial_fault_keys = list(initial_fault_keys)
        self._side_pool_keys = list(side_pool_keys)
        self._rng = random.Random(seed)
        self._profile = profile or BehaviorProfile()
        self._draft: Optional[DraftState] = None
        self.transcript = ChatTranscript()
        self.stats = CorrectionStats()
        # (fault_key, "generated" | "human") in resolution order — the
        # raw data behind Table 2's "Fixed" column.
        self.resolution_log: List[tuple] = []

    # -- LLMClient protocol -----------------------------------------------------

    def send(self, prompt: str) -> str:
        """Process one prompt; returns the full current configuration."""
        self.transcript.add_user(prompt)
        if self._draft is None:
            response = self._produce_initial_draft()
        else:
            response = self._handle_correction(prompt)
        self.transcript.add_assistant(response)
        return response

    # -- inspection hooks (tests, benches) ----------------------------------------

    @property
    def draft(self) -> DraftState:
        if self._draft is None:
            raise RuntimeError("no draft yet: send the task prompt first")
        return self._draft

    def active_fault_keys(self) -> List[str]:
        if self._draft is None:
            return []
        return [fault.key for fault in self._draft.active_faults()]

    # -- internals ---------------------------------------------------------------------

    def _produce_initial_draft(self) -> str:
        self._draft = DraftState(self._reference, self._renderer)
        for key in self._initial_fault_keys:
            self._draft.inject(self._catalog[key])
        self.stats.drafts += 1
        return self._draft.render()

    def _handle_correction(self, prompt: str) -> str:
        draft = self._draft
        assert draft is not None
        # Human-issued, fault-specific prompts are more direct and always
        # move the work forward (possibly into a successor fault).
        for fault in draft.active_faults():
            if fault.human_prompt_patterns and fault.matches_human(prompt):
                draft.repair(fault.key)
                if fault.successor_key is not None:
                    draft.inject(self._catalog[fault.successor_key])
                self.stats.human_fixes += 1
                self.resolution_log.append((fault.key, "human"))
                return draft.render()
        for fault in draft.active_faults():
            if fault.matches_generated(prompt):
                return self._apply_generated_correction(fault)
        self.stats.unmatched += 1
        return draft.render()

    def _apply_generated_correction(self, fault: Fault) -> str:
        draft = self._draft
        assert draft is not None
        if not fault.fixable_by_generated_prompt:
            # §3.2: "Instead it usually does nothing when asked to fix
            # the error."
            self.stats.stubborn_no_changes += 1
            return draft.render()
        outcome = sample_outcome(self._rng, self._profile)
        if outcome is CorrectionOutcome.NO_CHANGE:
            self.stats.no_changes += 1
            return draft.render()
        draft.repair(fault.key)
        self.stats.fixes += 1
        self.resolution_log.append((fault.key, "generated"))
        if outcome is CorrectionOutcome.FIX_WITH_NEW_ERROR:
            side_fault = self._pick_side_fault()
            if side_fault is not None:
                draft.inject(side_fault)
                self.stats.new_errors += 1
        elif outcome is CorrectionOutcome.FIX_WITH_REGRESSION:
            regressed = self._pick_regression()
            if regressed is not None:
                draft.reintroduce(regressed)
                self.stats.regressions += 1
        return draft.render()

    def _pick_side_fault(self) -> Optional[Fault]:
        candidates = [
            self._catalog[key]
            for key in self._side_pool_keys
            if self._draft is not None and not self._draft.is_active(key)
        ]
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def _pick_regression(self) -> Optional[Fault]:
        assert self._draft is not None
        candidates = [
            fault
            for fault in self._draft.fixed_faults()
            if fault.fixable_by_generated_prompt
            and not self._draft.is_active(fault.key)
        ]
        if not candidates:
            return None
        return self._rng.choice(candidates)
