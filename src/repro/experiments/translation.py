"""Experiment driver for use case 1: Cisco→Juniper translation (§3).

Regenerates Table 2 (which errors occurred and whether the generated
prompt sufficed) and the §3.2 leverage measurement (≈20 automated vs 2
human prompts → ~10X).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import (
    LoopLimits,
    ScriptedHuman,
    TranslationOrchestrator,
    TranslationRunResult,
)
from ..llm import (
    BehaviorProfile,
    DEFAULT_INITIAL_FAULTS,
    SimulatedGPT4,
    make_translation_model,
    translation_fault_catalog,
)
from ..sampleconfigs import load_translation_source

__all__ = [
    "Table2Row",
    "TranslationExperiment",
    "run_translation_experiment",
]


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2."""

    error: str
    error_type: str
    fixed_by_generated_prompt: bool

    def render(self) -> str:
        fixed = "Yes" if self.fixed_by_generated_prompt else "No"
        return f"{self.error:<45} {self.error_type:<20} {fixed}"


@dataclass
class TranslationExperiment:
    """A completed run plus the model it drove."""

    result: TranslationRunResult
    model: SimulatedGPT4
    seed: int

    @property
    def leverage(self) -> float:
        return self.result.leverage

    @property
    def automated_prompts(self) -> int:
        return self.result.prompt_log.automated

    @property
    def human_prompts(self) -> int:
        return self.result.prompt_log.human

    def table2_rows(self) -> List[Table2Row]:
        """Errors encountered during the run, Table 2 style.

        "Fixed" means the generated (automated) prompt sufficed; faults
        resolved only after a human prompt get "No", exactly the paper's
        criterion.
        """
        catalog = translation_fault_catalog()
        resolved_by: Dict[str, str] = {}
        for key, how in self.model.resolution_log:
            # Keep the *first* resolution: a later regression re-fix
            # does not change how the error class was originally beaten.
            resolved_by.setdefault(key, how)
        rows: List[Table2Row] = []
        seen_labels = set()
        order = list(DEFAULT_INITIAL_FAULTS) + ["invalid_prefix_list_syntax"]
        for key in order:
            fault = catalog[key]
            if fault.label in seen_labels:
                continue
            if key not in resolved_by and key not in DEFAULT_INITIAL_FAULTS:
                continue
            seen_labels.add(fault.label)
            rows.append(
                Table2Row(
                    error=fault.label,
                    error_type=_type_name(fault.category.value),
                    fixed_by_generated_prompt=(
                        resolved_by.get(key) == "generated"
                    ),
                )
            )
        return rows


def _type_name(category_value: str) -> str:
    return {
        "syntax": "Syntax error",
        "structural": "Structure mismatch",
        "attribute": "Attribute error",
        "policy": "Policy error",
    }.get(category_value, category_value)


def run_translation_experiment(
    seed: int = 0,
    profile: Optional[BehaviorProfile] = None,
    limits: Optional[LoopLimits] = None,
    initial_faults: Sequence[str] = DEFAULT_INITIAL_FAULTS,
    pair_programming: bool = False,
) -> TranslationExperiment:
    """Run the full §3 loop once and return everything measured.

    The default limits allow three automated tries per finding — the
    paper's translation loop shows more automated patience ("minor
    cycles for syntax correction not just at the start but also after
    correcting semantic errors") than the synthesis loop.
    """
    source = load_translation_source()
    model = make_translation_model(
        seed=seed, profile=profile, initial_faults=initial_faults, source=source
    )
    human = ScriptedHuman.for_model(model)  # the model's own catalog
    orchestrator = TranslationOrchestrator(
        source,
        model,
        human=human,
        limits=limits or LoopLimits(attempts_per_finding=3),
        pair_programming=pair_programming,
    )
    result = orchestrator.run()
    return TranslationExperiment(result=result, model=model, seed=seed)
