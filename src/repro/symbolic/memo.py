"""Process-local memo caches for the symbolic analysis hot path.

Large campaign grids re-verify the same route-map *shapes* thousands of
times: every scenario of a family × size cell builds the same reference
policies, and different drafts of one router keep the same policy
shape while other stanzas change.  (An unchanged draft is not checked
again: the loops' ``draft-finding`` memo answers it.)  The caches here
let those repeated questions hit a dictionary instead of re-enumerating
a candidate-route universe.

Each cache is a :class:`MemoCache`: a FIFO-bounded mapping with hit/miss
accounting, registered in a module-level registry so campaign tooling
can report an aggregate hit rate (``cache_totals``) and tests can reset
everything (``reset_caches``) or compare memoized against unmemoized
runs (``set_memoization``).

Caches are process-local by design: campaign worker processes each grow
their own, which keeps the engine fork-safe with zero coordination.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

from ..obs import counter

__all__ = [
    "MemoCache",
    "cache_totals",
    "memo_totals",
    "memoization_enabled",
    "reset_caches",
    "set_memoization",
]

_MISS = object()

_REGISTRY: List["MemoCache"] = []

_ENABLED = True


class MemoCache:
    """A FIFO-bounded dict with hit/miss counters.

    ``lookup`` returns ``(hit, value)``; ``store`` inserts, evicting the
    oldest entry past ``max_entries``.  Honors the module-wide
    memoization switch: when disabled, every lookup misses and stores
    are dropped, so memoized and unmemoized code paths can be compared
    without touching call sites.
    """

    def __init__(self, name: str, max_entries: int = 4096) -> None:
        self.name = name
        self.max_entries = max_entries
        # Hit/miss accounting lives in the process-wide metrics registry
        # under ``memo.<name>.*`` so campaign workers ship it home with
        # every other counter.  A new instance starts its series at zero
        # (tests recreate same-named caches; stale values would lie).
        self._hits = counter(f"memo.{name}.hits")
        self._misses = counter(f"memo.{name}.misses")
        self._hits.reset()
        self._misses.reset()
        self._entries: Dict[Hashable, Any] = {}
        _REGISTRY.append(self)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def lookup(self, key: Hashable) -> Tuple[bool, Any]:
        if not _ENABLED:
            self._misses.inc()
            return False, None
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self._misses.inc()
            return False, None
        self._hits.inc()
        return True, value

    def store(self, key: Hashable, value: Any) -> None:
        if not _ENABLED:
            return
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()
        self._hits.reset()
        self._misses.reset()

    def __len__(self) -> int:
        return len(self._entries)


def set_memoization(enabled: bool) -> None:
    """Globally enable/disable every registered cache (for benchmarks
    and memoized-vs-unmemoized regression tests)."""
    global _ENABLED
    _ENABLED = bool(enabled)


def memoization_enabled() -> bool:
    return _ENABLED


def reset_caches() -> None:
    """Drop every entry and zero every counter."""
    for cache in _REGISTRY:
        cache.clear()


def cache_totals() -> Tuple[int, int]:
    """Aggregate ``(hits, misses)`` across every registered cache.

    Same-named caches share one registry counter pair, so totals sum
    over distinct names (summing instances would double-count).
    """
    by_name = {cache.name: cache for cache in _REGISTRY}
    hits = sum(cache.hits for cache in by_name.values())
    misses = sum(cache.misses for cache in by_name.values())
    return hits, misses


def memo_totals(metrics: Dict[str, float]) -> Tuple[int, int]:
    """Aggregate ``(hits, misses)`` over every ``memo.<name>.*`` series
    of a metrics mapping (a registry snapshot or delta)."""
    hits = 0
    misses = 0
    for name, value in metrics.items():
        if not name.startswith("memo."):
            continue
        if name.endswith(".hits"):
            hits += int(value)
        elif name.endswith(".misses"):
            misses += int(value)
    return hits, misses
