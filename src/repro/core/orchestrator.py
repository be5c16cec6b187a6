"""The COSYNTH orchestrator: the Verified Prompt Programming loops.

Implements Figure 3's flow for both use cases:

* **fast inner loop** — verifier output, humanized, goes straight back
  to the LLM;
* **ordering** — syntax errors are handled before structural before
  attribute before policy/semantic errors (they "mask" later classes);
  a semantic fix can re-introduce a syntax error, in which case control
  falls back to the syntax verifier (the Figure 3 back-edge);
* **slow manual loop** — after ``attempts_per_finding`` fruitless
  automated tries on the same finding, COSYNTH punts to the human, whose
  prompt re-enters the same loop.

The orchestrator sees the LLM only through the
:class:`~repro.llm.client.LLMClient` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..batfish.snapshot import Snapshot
from ..campion import (
    AttributeDifference,
    PolicyBehaviorFinding,
    StructuralMismatch,
    compare_configs,
)
from ..cisco import parse_cisco
from ..errors import ErrorCategory, Finding
from ..juniper import parse_juniper
from ..lightyear.compose import (
    GlobalCheckResult,
    IncrementalGlobalChecker,
    check_global_no_transit,
    last_global_sim_stats,
)
from ..lightyear.verifier import verify_invariants
from ..llm.client import LLMClient
from ..netmodel.device import RouterConfig
from ..netmodel.routing_policy import SetCommunity
from ..symbolic.memo import MemoCache
from ..topology.model import Topology
from ..topology.verifier import verify_topology
from .composer import Composer
from .human import HumanAgent
from .humanizer import Humanizer, finding_from_warning
from .iip import IIPDatabase
from .leverage import PromptKind, PromptLog
from .modularizer import Modularizer
from .transcript import SessionTranscript

__all__ = [
    "LoopLimits",
    "SynthesisOrchestrator",
    "SynthesisRunResult",
    "TranslationOrchestrator",
    "TranslationRunResult",
]

# Campion reports keyed on the ids of (source, parsed draft): a re-sent
# draft parses to the same shared config, so its compare is a lookup.
# Each entry holds both configs, so their ids cannot be reused meanwhile.
_COMPARE_MEMO = MemoCache("campion-compare", max_entries=128)

DEFAULT_TRANSLATION_PROMPT = (
    "Translate the configuration into an equivalent Juniper configuration."
)


@dataclass(frozen=True)
class LoopLimits:
    """Loop-control knobs (Figure 2's "after some number of trials")."""

    attempts_per_finding: int = 2
    max_correction_prompts: int = 80


@dataclass
class TranslationRunResult:
    """Everything a translation run produced."""

    verified: bool
    prompt_log: PromptLog
    transcript: SessionTranscript
    final_text: str
    findings_seen: List[Finding] = field(default_factory=list)

    @property
    def leverage(self) -> float:
        return self.prompt_log.leverage()


@dataclass
class SynthesisRunResult:
    """Everything a synthesis run produced."""

    verified: bool
    prompt_log: PromptLog
    transcript: SessionTranscript
    router_texts: Dict[str, str] = field(default_factory=dict)
    global_check: Optional[GlobalCheckResult] = None
    findings_seen: List[Finding] = field(default_factory=list)

    @property
    def leverage(self) -> float:
        return self.prompt_log.leverage()


class _CorrectionLoop:
    """Shared punt-or-prompt engine for both orchestrators."""

    def __init__(
        self,
        llm: LLMClient,
        human: Optional[HumanAgent],
        humanizer: Humanizer,
        limits: LoopLimits,
        log: PromptLog,
        transcript: SessionTranscript,
        findings_seen: List[Finding],
        pair_programming: bool = False,
    ) -> None:
        self._llm = llm
        self._human = human
        self._humanizer = humanizer
        self._limits = limits
        self._log = log
        self._transcript = transcript
        self._findings_seen = findings_seen
        self._attempts: Dict[tuple, int] = {}
        self._pair_programming = pair_programming

    def correction_count(self) -> int:
        return self._log.automated + self._log.human

    def budget_exhausted(self) -> bool:
        return self.correction_count() >= self._limits.max_correction_prompts

    def handle(self, finding: Finding, router: str = "") -> str:
        """Prompt about one finding; returns the LLM's new draft."""
        self._findings_seen.append(finding)
        stage = finding.category.value
        self._transcript.record("verify", stage, finding.message, router)
        signature = (router, finding.category, finding.message)
        attempts = self._attempts.get(signature, 0)
        generated_prompt = self._humanizer.humanize(finding)
        if self._pair_programming:
            # Figure 1 ablation: no verifier-to-LLM automation; the human
            # does every check and correction personally.  After the same
            # number of fruitless formulaic tries, the human figures out
            # the targeted prompt themselves (still manual effort).
            if (
                attempts >= self._limits.attempts_per_finding
                and self._human is not None
            ):
                manual_prompt = self._human.respond(finding, generated_prompt)
                self._attempts[signature] = 0
                self._log.add(PromptKind.HUMAN, stage, manual_prompt, router)
                return self._llm.send(manual_prompt)
            self._attempts[signature] = attempts + 1
            self._log.add(PromptKind.HUMAN, stage, generated_prompt, router)
            return self._llm.send(generated_prompt)
        if attempts >= self._limits.attempts_per_finding and self._human is not None:
            manual_prompt = self._human.respond(finding, generated_prompt)
            self._transcript.record("punt", stage, finding.message, router)
            self._log.add(PromptKind.HUMAN, stage, manual_prompt, router)
            self._attempts[signature] = 0
            return self._llm.send(manual_prompt)
        self._log.add(PromptKind.AUTOMATED, stage, generated_prompt, router)
        self._attempts[signature] = attempts + 1
        return self._llm.send(generated_prompt)


class TranslationOrchestrator:
    """Use case 1 (§3): translate one Cisco config to Juniper.  ``source``
    is read-only: Campion reports are memoized on its identity."""

    def __init__(
        self,
        source: RouterConfig,
        llm: LLMClient,
        human: Optional[HumanAgent] = None,
        limits: Optional[LoopLimits] = None,
        pair_programming: bool = False,
    ) -> None:
        self._source = source
        self._llm = llm
        self._human = human
        self._limits = limits or LoopLimits()
        self._humanizer = Humanizer()
        self._pair_programming = pair_programming

    def run(self, task_prompt: Optional[str] = None) -> TranslationRunResult:
        log = PromptLog()
        transcript = SessionTranscript()
        findings_seen: List[Finding] = []
        loop = _CorrectionLoop(
            self._llm,
            self._human,
            self._humanizer,
            self._limits,
            log,
            transcript,
            findings_seen,
            pair_programming=self._pair_programming,
        )
        prompt = task_prompt or DEFAULT_TRANSLATION_PROMPT
        log.add(PromptKind.INITIAL, "task", prompt)
        draft_text = self._llm.send(prompt)
        transcript.record("draft", "task", "initial translation draft")
        while not loop.budget_exhausted():
            finding = self._next_finding(draft_text)
            if finding is None:
                transcript.record(
                    "verified", "global", "Batfish and Campion report no errors"
                )
                return TranslationRunResult(
                    verified=True,
                    prompt_log=log,
                    transcript=transcript,
                    final_text=draft_text,
                    findings_seen=findings_seen,
                )
            draft_text = loop.handle(finding)
        transcript.record("abandoned", "global", "correction budget exhausted")
        return TranslationRunResult(
            verified=False,
            prompt_log=log,
            transcript=transcript,
            final_text=draft_text,
            findings_seen=findings_seen,
        )

    def _next_finding(self, draft_text: str) -> Optional[Finding]:
        """Syntax first, then Campion's masked-ordering classes."""
        parsed = parse_juniper(draft_text, filename="translation.conf")
        if parsed.warnings:
            return finding_from_warning(parsed.warnings[0])
        source, draft = self._source, parsed.config
        hit, entry = _COMPARE_MEMO.lookup((id(source), id(draft)))
        if not hit:
            entry = (source, draft, compare_configs(source, draft))
            _COMPARE_MEMO.store((id(source), id(draft)), entry)
        raw = entry[2].first_finding()
        if raw is None:
            return None
        return _wrap_campion_finding(raw)


class SynthesisOrchestrator:
    """Use case 2 (§4): synthesize no-transit configs per router."""

    def __init__(
        self,
        topology: Topology,
        models: Dict[str, LLMClient],
        human: Optional[HumanAgent] = None,
        limits: Optional[LoopLimits] = None,
        iip_database: Optional[IIPDatabase] = None,
        iip_ids: Sequence[str] = (),
        pair_programming: bool = False,
        global_checker: "Optional[IncrementalGlobalChecker]" = None,
    ) -> None:
        self._topology = topology
        self._models = models
        self._human = human
        self._limits = limits or LoopLimits()
        self._humanizer = Humanizer()
        self._iip_database = iip_database or IIPDatabase()
        self._iip_ids = list(iip_ids)
        self._modularizer = Modularizer(topology)
        self._pair_programming = pair_programming
        # An owned checker turns repeated runs over the same topology
        # into incremental re-simulations of what changed between runs.
        self._global_checker = global_checker

    def run(self) -> SynthesisRunResult:
        log = PromptLog()
        transcript = SessionTranscript()
        findings_seen: List[Finding] = []
        composer = Composer(name=self._topology.name)
        verified = True
        for router_name in self._topology.router_names():
            llm = self._models[router_name]
            loop = _CorrectionLoop(
                llm,
                self._human,
                self._humanizer,
                self._limits,
                log,
                transcript,
                findings_seen,
                pair_programming=self._pair_programming,
            )
            text = self._start_router_chat(router_name, llm, log, transcript)
            while not loop.budget_exhausted():
                finding = self._next_finding(router_name, text)
                if finding is None:
                    transcript.record(
                        "verified", "semantic", "router verifies", router_name
                    )
                    break
                text = loop.handle(finding, router=router_name)
            else:
                transcript.record(
                    "abandoned", "global", "budget exhausted", router_name
                )
                verified = False
            composer.put(router_name, text)
        snapshot = composer.compose()
        global_check = self._final_global_check(snapshot, transcript)
        verified = verified and global_check.holds
        return SynthesisRunResult(
            verified=verified,
            prompt_log=log,
            transcript=transcript,
            router_texts={
                name: snapshot.texts[f"{name}.cfg"]
                for name in self._topology.router_names()
            },
            global_check=global_check,
            findings_seen=findings_seen,
        )

    # -- internals ----------------------------------------------------------------

    def _start_router_chat(
        self,
        router_name: str,
        llm: LLMClient,
        log: PromptLog,
        transcript: SessionTranscript,
    ) -> str:
        preamble = self._iip_database.compose_preamble(self._iip_ids)
        task = self._modularizer.router_task_prompt(router_name)
        prompt = f"{preamble}\n\n{task}" if preamble else task
        log.add(PromptKind.INITIAL, "task", prompt, router_name)
        text = llm.send(prompt)
        transcript.record("draft", "task", "initial config draft", router_name)
        return text

    def _next_finding(self, router_name: str, text: str) -> Optional[Finding]:
        """Syntax, then topology, then semantic — §4.1's three classes."""
        parsed = parse_cisco(
            text, filename=f"{router_name}.cfg", default_hostname=router_name
        )
        if parsed.warnings:
            return finding_from_warning(parsed.warnings[0], router=router_name)
        config = parsed.config
        spec = self._topology.router(router_name)
        issues = verify_topology(config, spec)
        if issues:
            issue = issues[0]
            return Finding(
                category=ErrorCategory.TOPOLOGY,
                message=issue.message,
                router=router_name,
                detail=issue,
            )
        invariants = self._modularizer.local_invariants(router_name)
        violations = verify_invariants({router_name: config}, invariants)
        if violations:
            violation = violations[0]
            return Finding(
                category=ErrorCategory.SEMANTIC,
                message=violation.message,
                router=router_name,
                detail=violation,
            )
        non_additive = _non_additive_finding(config, router_name)
        if non_additive is not None:
            return non_additive
        return None

    def _final_global_check(
        self, snapshot: Snapshot, transcript: SessionTranscript
    ) -> GlobalCheckResult:
        configs = {
            config.hostname: config for config in snapshot.configs.values()
        }
        result = check_global_no_transit(
            configs, self._topology, checker=self._global_checker
        )
        sim_stats = last_global_sim_stats()
        message = result.describe()
        if sim_stats is not None and sim_stats.incremental:
            message += (
                f" (incremental re-simulation: {sim_stats.dirty_routers} "
                f"changed router(s), {sim_stats.reused_entries} RIB "
                f"entries reused)"
            )
        transcript.record(
            "verify",
            "global",
            message,
        )
        return result


def _wrap_campion_finding(raw: object) -> Finding:
    if isinstance(raw, StructuralMismatch):
        category = ErrorCategory.STRUCTURAL
    elif isinstance(raw, AttributeDifference):
        category = ErrorCategory.ATTRIBUTE
    elif isinstance(raw, PolicyBehaviorFinding):
        category = ErrorCategory.POLICY
    else:
        raise TypeError(f"unexpected Campion finding: {type(raw).__name__}")
    return Finding(category=category, message=raw.describe(), detail=raw)


def _non_additive_finding(
    config: RouterConfig, router_name: str
) -> Optional[Finding]:
    """Detect community replacement in import-attached maps (§4.2's
    "Adding Communities" pitfall — it silently strips earlier tags)."""
    if config.bgp is None:
        return None
    import_maps = {
        neighbor.import_policy
        for neighbor in config.bgp.neighbors.values()
        if neighbor.import_policy is not None
    }
    for name in sorted(filter(None, import_maps)):
        route_map = config.get_route_map(name)
        if route_map is None:
            continue
        for clause in route_map.clauses:
            for action in clause.sets:
                if isinstance(action, SetCommunity) and not action.additive:
                    return Finding(
                        category=ErrorCategory.SEMANTIC,
                        message=(
                            f"The route-map {name} sets a community "
                            f"non-additively, replacing all communities "
                            f"already present on the route. Use the "
                            f"'additive' keyword when adding a community."
                        ),
                        router=router_name,
                        detail=route_map,
                    )
    return None
