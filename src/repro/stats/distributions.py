"""Random-variate distributions used by the failure models.

Each distribution wraps a ``random.Random`` stream supplied at sampling
time, so one seeded generator can drive many distributions and experiments
stay reproducible.  All quantities are in the simulation's time unit
(days, for the availability study).
"""

from __future__ import annotations

import abc
import bisect
import math
import random
from typing import Sequence

from repro.errors import ConfigurationError
from repro.stats.summaries import quantile

__all__ = [
    "Distribution",
    "Exponential",
    "Constant",
    "ShiftedExponential",
    "Uniform",
    "Empirical",
]


class Distribution(abc.ABC):
    """A non-negative random variate with a known mean."""

    @abc.abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one value using the caller's random stream."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value of the distribution."""


class Exponential(Distribution):
    """Exponential distribution parameterised by its *mean* (not rate).

    Used for times-to-failure (Table 1 assumes exponential failure laws)
    and for the variable part of hardware repairs.
    """

    def __init__(self, mean: float):
        if mean <= 0:
            raise ConfigurationError(f"exponential mean must be > 0, got {mean}")
        self._mean = float(mean)

    def sample(self, rng: random.Random) -> float:
        # Inverse-CDF sampling; 1 - random() avoids log(0).
        return -self._mean * math.log(1.0 - rng.random())

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean})"


class Constant(Distribution):
    """Degenerate distribution: always the same value.

    Models software restart times, which the paper treats as constant.
    """

    def __init__(self, value: float):
        if value < 0:
            raise ConfigurationError(f"constant value must be >= 0, got {value}")
        self._value = float(value)

    def sample(self, rng: random.Random) -> float:
        return self._value

    @property
    def mean(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Constant({self._value})"


class ShiftedExponential(Distribution):
    """Constant offset plus an exponential part.

    The paper models hardware repairs as "a constant term representing the
    minimum service time plus an exponentially distributed term
    representing the actual repair process".
    """

    def __init__(self, offset: float, exponential_mean: float):
        if offset < 0:
            raise ConfigurationError(f"offset must be >= 0, got {offset}")
        if exponential_mean < 0:
            raise ConfigurationError(
                f"exponential mean must be >= 0, got {exponential_mean}"
            )
        self._offset = float(offset)
        self._exp_mean = float(exponential_mean)

    def sample(self, rng: random.Random) -> float:
        if self._exp_mean == 0.0:
            return self._offset
        return self._offset - self._exp_mean * math.log(1.0 - rng.random())

    @property
    def mean(self) -> float:
        return self._offset + self._exp_mean

    @property
    def offset(self) -> float:
        """The constant (minimum service time) part."""
        return self._offset

    @property
    def exponential_mean(self) -> float:
        """Mean of the exponential (actual repair) part."""
        return self._exp_mean

    def __repr__(self) -> str:
        return f"ShiftedExponential(offset={self._offset}, exp={self._exp_mean})"


class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if not 0 <= low <= high:
            raise ConfigurationError(f"need 0 <= low <= high, got [{low}, {high}]")
        self._low = float(low)
        self._high = float(high)

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self._low, self._high)

    @property
    def mean(self) -> float:
        return (self._low + self._high) / 2.0

    def __repr__(self) -> str:
        return f"Uniform({self._low}, {self._high})"


class Empirical(Distribution):
    """Piecewise-linear inverse-CDF fit to observed samples.

    Lets users plug measured repair logs straight into the failure model,
    the way the paper's authors calibrated Table 1 from their machines.
    """

    def __init__(self, samples: Sequence[float]):
        if not samples:
            raise ConfigurationError("empirical distribution needs >= 1 sample")
        cleaned = sorted(float(s) for s in samples)
        if cleaned[0] < 0:
            raise ConfigurationError("empirical samples must be non-negative")
        self._sorted = cleaned
        self._mean = sum(cleaned) / len(cleaned)

    def sample(self, rng: random.Random) -> float:
        # A single sample draws no random number.
        if len(self._sorted) == 1:
            return self._sorted[0]
        return quantile(self._sorted, rng.random())

    @property
    def mean(self) -> float:
        return self._mean

    def quantile(self, q: float) -> float:
        """Empirical quantile for ``q`` in [0, 1] (linear interpolation)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        return quantile(self._sorted, q)

    def cdf(self, x: float) -> float:
        """Fraction of mass at or below *x*."""
        return bisect.bisect_right(self._sorted, x) / len(self._sorted)

    def __repr__(self) -> str:
        return f"Empirical(n={len(self._sorted)}, mean={self._mean:.4g})"
