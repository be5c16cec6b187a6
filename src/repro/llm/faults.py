"""The fault framework behind the simulated GPT-4.

The paper characterizes GPT-4's drafts as "promising draft
configurations but with egregious errors in topology, syntax, and
semantics" (§Abstract).  The simulation reifies each observed error as a
:class:`Fault`: a reversible transform applied to the *correct*
reference configuration.  A draft is then "reference + active faults" —
which guarantees every verifier finding traces back to a documented,
paper-grounded fault rather than an accident of the generator.

Faults are recognized in correction prompts through regex signatures:
``prompt_patterns`` match the humanizer's generated prompts (Tables 1
and 3), ``human_prompt_patterns`` match the more direct prompts only a
human issues (§3.2's "add 'from bgp' conditions", §4.2's "declare each
match statement in a separate route-map stanza").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ErrorCategory
from ..netmodel.device import RouterConfig
from ..netmodel.value import ir_copy
from ..symbolic.memo import MemoCache

__all__ = ["DraftState", "Fault", "FaultTargetError"]

IrTransform = Callable[[RouterConfig], None]
TextTransform = Callable[[str], str]


class FaultTargetError(RuntimeError):
    """A fault was injected into a draft that lacks its target.

    Fault transforms address concrete artifacts — a neighbor IP, an
    announced network, an interface, a route-map.  Historically a
    missing target made the transform a silent no-op, so a misassigned
    fault "passed" every check vacuously.  Transforms now raise this
    instead, surfacing the misassignment at injection time.
    """



@dataclass(frozen=True)
class Fault:
    """One reversible, recognizable draft error."""

    key: str
    label: str  # Table 2 / Table 3 row name
    category: ErrorCategory
    fixable_by_generated_prompt: bool
    prompt_patterns: Tuple[str, ...]
    human_prompt_patterns: Tuple[str, ...] = ()
    ir_transform: Optional[IrTransform] = None
    text_transform: Optional[TextTransform] = None
    successor_key: Optional[str] = None  # fault that replaces this one after a human-directed fix attempt (e.g. ge-range -> invalid syntax)
    human_prompt: str = ""  # the targeted prompt a human issues when punted

    def matches_generated(self, prompt: str) -> bool:
        return any(
            re.search(pattern, prompt, re.IGNORECASE)
            for pattern in self.prompt_patterns
        )

    def matches_human(self, prompt: str) -> bool:
        return any(
            re.search(pattern, prompt, re.IGNORECASE)
            for pattern in self.human_prompt_patterns
        )


# Rendered drafts, shared by every chat in the process.  Keyed on
# (renderer, id(pristine), ordered active faults); each entry holds the
# pristine so its id cannot be reused while the entry lives.  128
# entries cover the drafts of a few neighbouring scenarios, which is
# where reuse happens in grid order.
_RENDER_MEMO = MemoCache("draft-render", max_entries=128)


class DraftState:
    """A draft configuration: pristine reference plus active faults.

    Rendering copies the reference with
    :func:`~repro.netmodel.value.ir_copy` (mutable containers are
    rebuilt, immutable value leaves shared), applies every active
    fault's IR transform in injection order, renders text, then applies
    text transforms (for errors — like invalid syntax — that the IR
    cannot express) in the same order.  With no IR fault active there
    is nothing to edit, so the reference itself is rendered.

    The rendered text is memoized process-wide, so chats over the same
    pristine object with the same faults render once.  Text transforms
    need not commute, so the key is the *ordered* tuple of active faults
    (faults compare by value, transforms included, so a different fault
    under a reused key never hits another fault's text).  The pristine
    is shared and read-only: it is keyed by identity, so a caller that
    edits a reference edits an ``ir_copy``.
    """

    def __init__(
        self,
        pristine: RouterConfig,
        renderer: Callable[[RouterConfig], str],
    ) -> None:
        self._pristine = pristine
        self._renderer = renderer
        self._active: Dict[str, Fault] = {}
        self._fixed: List[Fault] = []

    # -- fault management ------------------------------------------------------

    def inject(self, fault: Fault) -> None:
        self._active[fault.key] = fault

    def repair(self, fault_key: str) -> Optional[Fault]:
        fault = self._active.pop(fault_key, None)
        if fault is not None:
            self._fixed.append(fault)
        return fault

    def reintroduce(self, fault: Fault) -> None:
        """A regression: a previously fixed fault comes back (§3.2:
        "Sometimes it even reintroduces errors that were previously
        fixed!")."""
        self._fixed = [item for item in self._fixed if item.key != fault.key]
        self._active[fault.key] = fault

    def active_faults(self) -> List[Fault]:
        return list(self._active.values())

    def fixed_faults(self) -> List[Fault]:
        return list(self._fixed)

    def is_active(self, fault_key: str) -> bool:
        return fault_key in self._active

    @property
    def clean(self) -> bool:
        return not self._active

    # -- rendering ----------------------------------------------------------------

    @property
    def pristine(self) -> RouterConfig:
        """The shared, read-only reference this draft faults."""
        return self._pristine

    @property
    def key(self) -> Tuple:
        """What the draft's IR and text are a function of: the renderer,
        the pristine's identity and the ordered active faults.  Keys the
        render memo and the campaign lint memo; an entry under it must
        hold the pristine so the id cannot be reused while it lives."""
        return (self._renderer, id(self._pristine), tuple(self._active.values()))

    def current_config(self) -> RouterConfig:
        """The draft's IR (faulted): a fresh copy of the pristine with
        every active IR transform applied, which the caller may edit.
        ``repro lint --fault``, ``lint --validate`` and white-box tests
        use it."""
        config = ir_copy(self._pristine)
        for fault in self._active.values():
            if fault.ir_transform is not None:
                fault.ir_transform(config)
        return config

    def shared_config(self) -> RouterConfig:
        """The draft's IR, read-only: the shared pristine itself when no
        active fault edits the IR, else :meth:`current_config`'s copy."""
        if any(fault.ir_transform is not None for fault in self._active.values()):
            return self.current_config()
        return self._pristine

    def render(self) -> str:
        key = self.key
        hit, entry = _RENDER_MEMO.lookup(key)
        if hit:
            return entry[1]
        text = self._renderer(self.shared_config())
        for fault in self._active.values():
            if fault.text_transform is not None:
                text = fault.text_transform(text)
        _RENDER_MEMO.store(key, (self._pristine, text))
        return text
