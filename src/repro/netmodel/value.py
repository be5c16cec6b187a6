"""The deep-copy rule for deeply immutable IR values, and the IR copy
that follows it."""

from __future__ import annotations

import enum
from typing import Any, Dict

__all__ = ["ImmutableValue", "ir_copy"]


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


_SHARED = (ImmutableValue, str, int, float, type(None), enum.Enum)


def ir_copy(value: Any) -> Any:
    """A copy of an IR value that the caller may edit: every list, dict
    and mutable IR object is rebuilt, and every :class:`ImmutableValue`,
    string, number and enum is shared.

    It equals ``copy.deepcopy(value)`` for the IR, which never holds
    one mutable object in two places, and skips deepcopy's memo and
    reduce protocol.
    """
    kind = type(value)
    if kind is list:
        return [ir_copy(item) for item in value]
    if kind is dict:
        return {key: ir_copy(item) for key, item in value.items()}
    if isinstance(value, _SHARED):
        return value
    clone = object.__new__(kind)
    clone.__dict__.update(
        (name, ir_copy(item)) for name, item in value.__dict__.items()
    )
    return clone
