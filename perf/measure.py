"""Shared measurement helpers: spans, percentiles, due-time latency, spreads.

Nothing here imports :mod:`repro`; ``agree.py`` and the unit tests use these
helpers without the program under test.
"""

from __future__ import annotations

import itertools
import json
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence

#: Percentiles worth reporting, highest first, in per mille (exact integers).
_PER_MILLE = (999, 990, 900)
#: A percentile is reported only with this many samples beyond it.
_SAMPLES_BEYOND = 10

#: Share of a traced run's measuring time spent untraced, as the reference
#: the tracing overhead is measured against.
UNTRACED_SHARE = 0.3


class SpanLog:
    """In-memory spans and counts, written out when the run ends.

    A span is ``{id, parent, name, start, end, **attrs}``; the parent is the
    span open on the same thread when this one started.  The object also
    satisfies the duck-typed ``profiler=`` hook of ``run_study`` and
    ``run_schedule`` (``phase(name, **labels)`` and ``count(name, amount)``),
    which is how the simulator's layer boundaries get their spans without
    any tracing inside the program.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Record the ``with`` block as one span; yields the open record."""
        stack = self._open.__dict__.setdefault("stack", [])
        record = {"id": next(self._ids),
                  "parent": stack[-1] if stack else None,
                  "name": name, "start": time.perf_counter(), "end": None,
                  **attrs}
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    phase = span

    def event(self, name: str, at: float, **attrs: Any) -> None:
        """Record something that happened at instant *at* as an empty span."""
        self.spans.append({"id": next(self._ids), "parent": None,
                           "name": name, "start": at, "end": at, **attrs})

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to the counter *name*."""
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def named(self, name: str) -> list[dict[str, Any]]:
        """Every finished span called *name*."""
        return [span for span in self.spans if span["name"] == name]

    def write(self, path: Any) -> None:
        """One JSON line per span, then one line holding the counts."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")
            out.write(json.dumps({"counts": self.counts},
                                 sort_keys=True) + "\n")


def duration(span: dict[str, Any]) -> float:
    """Seconds between a finished span's start and end."""
    return span["end"] - span["start"]


def self_times(spans: Iterable[dict[str, Any]]) -> dict[str, float]:
    """Self time per span name, in seconds.

    A span's self time is its duration minus the part of that interval its
    child spans cover (overlapping children are merged, so concurrent
    children are not subtracted twice).
    """
    spans = list(spans)
    children: dict[Any, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"]))
    totals: dict[str, float] = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        totals[span["name"]] = (totals.get(span["name"], 0.0)
                                + duration(span) - covered)
    return totals


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0–100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def highest_percentile(samples: int) -> float:
    """The highest reportable percentile: at least ten samples lie past it
    (50.0 when even p90 is not supported)."""
    for per_mille in _PER_MILLE:
        if samples * (1000 - per_mille) >= _SAMPLES_BEYOND * 1000:
            return per_mille / 10.0
    return 50.0


def due_latency(due: float, completed: float) -> float:
    """Open-loop latency: time from when a request was *due*, not from
    when a stalled generator got round to sending it."""
    return completed - due


def peak_rss_mb() -> float:
    """Max RSS of this process and of its largest waited-for child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q1, median, q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*
    (negative when it is better)."""
    change = (second - first) / abs(first) if first else 0.0
    return change if better == "lower" else -change
