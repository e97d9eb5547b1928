"""Stochastic toolkit: distributions, batch means, availability tracking.

The paper's simulation (Section 4) relies on three statistical components,
all reimplemented here from scratch:

* the failure/repair distributions of Table 1 — exponential times to fail,
  *constant + exponential* hardware repair times, constant software
  restarts (:mod:`repro.stats.distributions`);
* batch-means estimation of steady-state quantities with 95 % Student-t
  confidence intervals (:mod:`repro.stats.batch_means`);
* continuous-time tracking of a boolean availability signal, yielding the
  unavailability fraction and the durations of unavailable periods
  (:mod:`repro.stats.tracker`).
"""

from repro.stats.batch_means import BatchMeans, ConfidenceInterval
from repro.stats.distributions import (
    Constant,
    Distribution,
    Empirical,
    Exponential,
    ShiftedExponential,
    Uniform,
)
from repro.stats.summaries import RunningStats, quantile
from repro.stats.tracker import AvailabilityTracker, Interval

__all__ = [
    "AvailabilityTracker",
    "BatchMeans",
    "ConfidenceInterval",
    "Constant",
    "Distribution",
    "Empirical",
    "Exponential",
    "Interval",
    "RunningStats",
    "ShiftedExponential",
    "Uniform",
    "quantile",
]
