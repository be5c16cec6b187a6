"""Latency percentiles and failure accounting for the VPP-loop benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p90 needs 100 samples and the median 20.
MIN_SAMPLES_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One percentile of a latency sample, with the sample count."""

    q: float
    value: float
    samples: int

    def render(self, unit: str = "ms") -> str:
        return f"{self.value:.3f} {unit} (p{round(100 * self.q)}, n={self.samples})"


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """The ``q``-quantile of ``samples`` by linear interpolation.

    Raises ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond the quantile: such a tail value rests on a
    handful of observations and swings from run to run.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    count = len(samples)
    beyond = count * (1.0 - q)
    if beyond < MIN_SAMPLES_BEYOND - 1e-9:
        needed = math.ceil(MIN_SAMPLES_BEYOND / (1.0 - q) - 1e-9)
        raise ValueError(
            f"p{round(100 * q)} needs at least {needed} samples, got {count}"
        )
    ordered = sorted(samples)
    position = q * (count - 1)
    low = math.floor(position)
    high = min(low + 1, count - 1)
    fraction = position - low
    value = ordered[low] + (ordered[high] - ordered[low]) * fraction
    return Percentile(q=q, value=value, samples=count)


@dataclass
class Tally:
    """Operations attempted and every failure seen among them.

    A failure is an error row, an exception, or an oracle mismatch;
    ``failed_ratio`` divides their number by the operations attempted.
    """

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def check(self, ok: bool, reason: str) -> bool:
        if not ok:
            self.fail(reason)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
