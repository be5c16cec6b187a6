"""The deep-copy rule for deeply immutable IR values."""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["ImmutableValue"]


class ImmutableValue:
    """Base of the frozen IR value types whose fields are all ints,
    strs, enums, or tuples of such values and other immutable values.

    Such a value can never change, so its deep copy is the value
    itself: copying a :class:`~repro.netmodel.device.RouterConfig`
    rebuilds only its mutable containers and shares these leaves.  A
    subclass must keep the field rule; a mutable field would be shared
    between a config and its copies.
    """

    __slots__ = ()

    def __deepcopy__(self, memo: Dict[int, Any]) -> "ImmutableValue":
        return self
