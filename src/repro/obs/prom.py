"""Prometheus text-exposition rendering (stdlib only).

The service's ``GET /metrics`` endpoint serves version 0.0.4 of the text
format: one ``# TYPE`` line per metric family, then one sample per line,
optionally labeled.  Metric names come from the registry's dot-separated
namespaces; dots and dashes become underscores (``memo.universe-routes.hits``
→ ``memo_universe_routes_hits``).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["Sample", "render_prometheus", "sanitize_metric_name"]

#: ``(name, labels-or-None, value, type)`` — type is "counter" or "gauge".
Sample = Tuple[str, Optional[Mapping[str, str]], float, str]

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    sanitized = _INVALID.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def render_prometheus(samples: Iterable[Sample]) -> str:
    """Render samples grouped by family, with ``# TYPE`` headers.

    Samples sharing a (sanitized) name form one family and must share a
    type; families render in first-seen order, samples in given order.
    """
    families: Dict[str, List[Tuple[Optional[Mapping[str, str]], float]]] = {}
    types: Dict[str, str] = {}
    order: List[str] = []
    for name, labels, value, sample_type in samples:
        metric = sanitize_metric_name(name)
        if metric not in families:
            families[metric] = []
            types[metric] = sample_type
            order.append(metric)
        elif types[metric] != sample_type:
            raise ValueError(
                f"metric {metric!r} declared as both {types[metric]!r} "
                f"and {sample_type!r}"
            )
        families[metric].append((labels, value))
    lines: List[str] = []
    for metric in order:
        lines.append(f"# TYPE {metric} {types[metric]}")
        for labels, value in families[metric]:
            if labels:
                rendered = ",".join(
                    f'{sanitize_metric_name(k)}="{_escape_label_value(str(v))}"'
                    for k, v in labels.items()
                )
                lines.append(f"{metric}{{{rendered}}} {_format_value(value)}")
            else:
                lines.append(f"{metric} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""
