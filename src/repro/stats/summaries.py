"""Summary statistics: streaming moments (Welford's algorithm) and the
one quantile routine."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import ConfigurationError

__all__ = ["RunningStats", "quantile"]


def quantile(ordered: Sequence[float], q: float) -> float:
    """The *q*-quantile of a sorted, non-empty sequence: linear
    interpolation between the order statistics around position
    ``q * (n - 1)``.  Callers check ``0 <= q <= 1`` and emptiness
    themselves, each with its own exception and empty value."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    index = min(int(position), len(ordered) - 2)
    fraction = position - index
    return ordered[index] + fraction * (ordered[index + 1] - ordered[index])


class RunningStats:
    """Single-pass mean/variance/extrema accumulator.

    Numerically stable (Welford).  Used for per-run bookkeeping such as
    message counts per operation and down-period lengths.
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._total = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        self._total += value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ConfigurationError("no observations")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (needs >= 2 observations)."""
        if self._n < 2:
            raise ConfigurationError("variance needs >= 2 observations")
        return self._m2 / (self._n - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        if self._n == 0:
            raise ConfigurationError("no observations")
        return self._min

    @property
    def maximum(self) -> float:
        if self._n == 0:
            raise ConfigurationError("no observations")
        return self._max

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two summaries into a new one (parallel Welford merge)."""
        merged = RunningStats()
        if self._n == 0:
            merged.__dict__.update(other.__dict__)
            return merged
        if other._n == 0:
            merged.__dict__.update(self.__dict__)
            return merged
        n = self._n + other._n
        delta = other._mean - self._mean
        merged._n = n
        merged._mean = self._mean + delta * other._n / n
        merged._m2 = self._m2 + other._m2 + delta * delta * self._n * other._n / n
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        merged._total = self._total + other._total
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._n == 0:
            return "RunningStats(empty)"
        return f"RunningStats(n={self._n}, mean={self._mean:.6g})"
