"""Sample rectification prompts (Tables 1 and 3).

Both tables show, per error class, an example of the humanizer's output
with the verifier-supplied fields spliced in.  These helpers run the
real loops and harvest the first generated prompt of each class — so the
printed tables are produced by the actual humanizer on actual verifier
findings, not hard-coded strings.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.leverage import PromptKind
from .no_transit import run_no_transit_experiment
from .translation import run_translation_experiment

__all__ = [
    "sample_synthesis_prompts",
    "sample_translation_prompts",
]

_TRANSLATION_STAGES = ("syntax", "structural", "attribute", "policy")
_SYNTHESIS_STAGES = ("syntax", "topology", "semantic")


def sample_translation_prompts(seed: int = 0) -> List[Tuple[str, str]]:
    """(error class, example generated prompt) pairs — Table 1.

    One representative automated prompt per class, in the paper's order.
    """
    experiment = run_translation_experiment(seed=seed)
    return _first_per_stage(
        experiment.result.prompt_log.records, _TRANSLATION_STAGES
    )


def sample_synthesis_prompts(seed: int = 0) -> List[Tuple[str, str]]:
    """(error class, example generated prompt) pairs — Table 3.

    The paper's synthesis table shows several topology examples; this
    returns one per class (the bench prints all topology prompts)."""
    experiment = run_no_transit_experiment(seed=seed)
    return _first_per_stage(
        experiment.result.prompt_log.records, _SYNTHESIS_STAGES
    )


def _first_per_stage(records, stages) -> List[Tuple[str, str]]:
    found: Dict[str, str] = {}
    for record in records:
        if record.kind is not PromptKind.AUTOMATED:
            continue
        if record.stage in stages and record.stage not in found:
            found[record.stage] = record.text
    return [(stage, found[stage]) for stage in stages if stage in found]
