"""A small metrics registry: counters, gauges, histograms, timers.

The study harness wants numbers, not log lines: how many quorum tests
granted per policy, how long each (configuration, policy) cell took,
how tie-breaks distribute.  A :class:`MetricsRegistry` holds labelled
series of three instrument kinds:

* :class:`Counter` — monotonically increasing count (``inc``);
* :class:`Gauge` — last-write-wins value (``set``);
* :class:`Histogram` — streaming summary (count/sum/min/max/mean) plus
  a bounded reservoir for quantiles.

Series are identified by ``(name, labels)``; asking for the same pair
twice returns the same instrument, so instrumented code can call
``registry.counter("quorum.granted", policy="LDV")`` in a loop without
bookkeeping.  ``registry.timed(...)`` is a context manager recording a
wall-clock duration into a histogram — the runner wraps every study
cell in one.  ``to_dict()`` produces the JSON document that
``--metrics-out`` writes.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional, Tuple

from repro.stats.summaries import quantile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import TraceRecord

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricsSink"]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (>= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable summary."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* to the value."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract *amount* from the value."""
        self.value -= amount

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable summary."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A streaming summary plus a bounded reservoir of observations.

    The summary (count, sum, min, max) is exact; quantiles come from the
    first *reservoir_size* observations, which is exact for the study's
    per-cell timings (dozens of observations) and bounded for hot-path
    use.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_reservoir",
                 "_reservoir_size")

    def __init__(self, reservoir_size: int = 1024):
        if reservoir_size < 1:
            raise ValueError(f"reservoir size must be >= 1, got {reservoir_size}")
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._reservoir: list[float] = []
        self._reservoir_size = reservoir_size

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(value)

    def merge(self, other: "Histogram") -> None:
        """Fold *other*'s observations into this histogram (for combining
        per-worker registries after a parallel study)."""
        self.count += other.count
        self.total += other.total
        if other.minimum is not None:
            if self.minimum is None or other.minimum < self.minimum:
                self.minimum = other.minimum
        if other.maximum is not None:
            if self.maximum is None or other.maximum > self.maximum:
                self.maximum = other.maximum
        room = self._reservoir_size - len(self._reservoir)
        if room > 0:
            self._reservoir.extend(other._reservoir[:room])

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile over the reservoir (0.0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._reservoir:
            return 0.0
        return quantile(sorted(self._reservoir), q)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable summary with p50/p95/p99/p99.9.

        ``sum``/``count`` are exact, so rates and averages stay
        computable from the serialised form alone — the contract the
        time-series query layer and Prometheus exposition rely on.
        """
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }


class MetricsRegistry:
    """Labelled series of counters, gauges and histograms.

    Every accessor is get-or-create: the first
    ``registry.counter("x", policy="LDV")`` makes the series, later
    calls return it.  A name must keep one instrument kind — asking for
    ``counter("x")`` after ``gauge("x")`` raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, LabelKey], Any] = {}
        self._kinds: dict[str, type] = {}

    def _get(self, cls: type, name: str, labels: Mapping[str, Any]) -> Any:
        if not name:
            raise ValueError("metric name must be non-empty")
        known = self._kinds.get(name)
        if known is not None and known is not cls:
            raise ValueError(
                f"metric {name!r} is a {known.__name__}, not a {cls.__name__}"
            )
        key = (name, _label_key(labels))
        instrument = self._series.get(key)
        if instrument is None:
            instrument = cls()
            self._series[key] = instrument
            self._kinds[name] = cls
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter series (name, labels), created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge series (name, labels), created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram series (name, labels), created on first use."""
        return self._get(Histogram, name, labels)

    @contextmanager
    def timed(self, name: str, **labels: Any) -> Iterator[Histogram]:
        """Record the wall-clock duration of a ``with`` block, in seconds.

        Yields the underlying histogram, so callers can read totals.
        Durations are recorded even when the block raises.
        """
        histogram = self.histogram(name, **labels)
        start = _time.perf_counter()
        try:
            yield histogram
        finally:
            histogram.observe(_time.perf_counter() - start)

    # ------------------------------------------------------------------
    def series(self) -> Iterator[tuple[str, dict[str, str], Any]]:
        """Iterate ``(name, labels, instrument)`` in sorted order."""
        for (name, label_key), instrument in sorted(self._series.items()):
            yield name, dict(label_key), instrument

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """The value of a counter/gauge series, or ``None`` if absent."""
        instrument = self._series.get((name, _label_key(labels)))
        if instrument is None:
            return None
        return getattr(instrument, "value", None)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s series into this registry.

        Counters add, gauges take the other's value, histograms merge
        their summaries.  Used to combine the per-worker registries of a
        parallel study into one document.
        """
        for (name, label_key), instrument in sorted(other._series.items()):
            mine = self._get(type(instrument), name, dict(label_key))
            if isinstance(instrument, Counter):
                mine.inc(instrument.value)
            elif isinstance(instrument, Gauge):
                mine.set(instrument.value)
            else:
                mine.merge(instrument)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable dump of every series."""
        payload = []
        for name, labels, instrument in self.series():
            entry = {"name": name, "labels": labels}
            entry.update(instrument.to_dict())
            payload.append(entry)
        return {"format": "repro-metrics", "version": 1, "series": payload}

    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry series={len(self._series)}>"


class MetricsSink:
    """A tracer sink that *counts* records instead of storing them.

    Every record increments ``registry.counter(record.kind, ...)``,
    labelled by the sink's bound labels plus the record's ``policy``
    field when present.  Attaching ``Tracer(MetricsSink(registry,
    config="H"))`` to a protocol therefore turns its decision stream
    into per-policy ``quorum.granted`` / ``quorum.denied`` /
    ``tiebreak.lexicographic`` / ``votes.carried`` tallies with O(1)
    memory — what ``--metrics-out`` reports.
    """

    def __init__(self, registry: MetricsRegistry, **labels: Any):
        self._registry = registry
        self._labels = {str(k): str(v) for k, v in labels.items()}
        # (kind, policy) -> its counter: a registry never drops a series,
        # so the label key is built once per series, not once per record.
        self._counters: dict[tuple[str, Any], Counter] = {}

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    def emit(self, record: "TraceRecord") -> None:
        """Count *record* into its per-kind (and per-policy) series."""
        policy = record.fields.get("policy")
        counter = self._counters.get((record.kind, policy))
        if counter is None:
            labels = self._labels if policy is None else {
                "policy": policy, **self._labels}
            counter = self._registry.counter(record.kind, **labels)
            self._counters[record.kind, policy] = counter
        counter.inc()

    def close(self) -> None:
        """Nothing to release; tallies live in the registry."""
