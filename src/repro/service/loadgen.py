"""A blocking load generator for the replicated KV service.

Worker threads drive :class:`~repro.service.client.ServiceClient`
sessions against a (possibly chaotic) cluster, recording one sample
per operation and checking the service's client-visible consistency
contract as they go.

The contract checked here is the single-writer one the workers set up
for themselves: each worker owns a disjoint key space, so after it has
an *acknowledged* write of value ``v_i`` to a key, any successful read
of that key must return ``v_i`` or a value this worker issued later
(an unacknowledged write may still have committed — ``unavailable``
means unresolved, not "did not happen").  A read outside that window
is recorded as a ``stale-read`` violation; the bench treats any
violation as failure.

Latency :class:`~repro.obs.metrics.Histogram` instances are not
thread-safe, so each worker accumulates plain sample dicts and the
merge into histograms happens in the caller's thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple

from repro.chaos.schedule import derived_rng
from repro.errors import ConfigurationError
from repro.obs.dtrace.spans import MemorySpanSink, SpanRecorder
from repro.obs.metrics import Histogram
from repro.service.client import ServiceClient

__all__ = [
    "LoadResult",
    "LoadSpec",
    "run_load",
]

#: Every outcome a sample can carry (client-side taxonomy).
OUTCOMES = ("ok", "denied", "unavailable", "contended", "error")


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one load run.

    Attributes:
        duration: Wall-clock seconds to keep issuing operations.
        workers: Number of concurrent client threads.
        write_ratio: Probability an operation is a ``put``.
        keys_per_worker: Size of each worker's private key space.
        think_s: Mean pause between operations (exponentially jittered).
        seed: Root seed; worker ``w`` derives its RNG from
            ``(seed, "load-<w>")`` so runs are reproducible.
        timeout: Per-request client timeout.
        trace: Record distributed-tracing spans — each worker's client
            opens a root span per operation and the spans land in
            :attr:`LoadResult.spans` for the collector to merge with
            the replica-side logs.
    """

    duration: float = 10.0
    workers: int = 3
    write_ratio: float = 0.5
    keys_per_worker: int = 4
    think_s: float = 0.01
    seed: int = 1988
    timeout: float = 2.0
    trace: bool = False

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError(
                f"load duration must be > 0, got {self.duration}")
        if self.workers < 1:
            raise ConfigurationError(
                f"load needs >= 1 worker, got {self.workers}")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigurationError(
                f"write_ratio must be in [0, 1], got {self.write_ratio}")
        if self.keys_per_worker < 1:
            raise ConfigurationError(
                f"keys_per_worker must be >= 1, got {self.keys_per_worker}")


@dataclass
class LoadResult:
    """Everything one load run produced.

    Attributes:
        samples: One dict per operation (time offset, op, key, outcome,
            latency, attempts, worker) — the registry's sidecar lines.
        violations: Consistency violations observed by the workers.
        outcomes: ``{op: {outcome: count}}`` availability table.
        spans: Client-side trace spans (empty unless ``spec.trace``).
    """

    samples: list[dict[str, Any]] = field(default_factory=list)
    violations: list[dict[str, Any]] = field(default_factory=list)
    outcomes: dict[str, dict[str, int]] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)

    def latencies(self) -> dict[str, dict[str, Histogram]]:
        """Per-op, per-outcome latency histograms over every sample.

        A denied operation's latency is a different population from a
        granted one's (a denial is one quorum round, an unavailability
        the whole retry budget), so blending them into one series hid
        both; each outcome gets its own histogram.
        """
        tables: dict[str, dict[str, Histogram]] = {}
        for sample in self.samples:
            per_op = tables.setdefault(sample["op"], {})
            per_op.setdefault(sample["outcome"], Histogram()).observe(
                sample["latency"])
        return tables

    def availability(self) -> dict[str, dict[str, Any]]:
        """Per-op outcome counts and the ``ok`` rate."""
        table: dict[str, dict[str, Any]] = {}
        for op, counts in sorted(self.outcomes.items()):
            total = sum(counts.values())
            table[op] = {
                "total": total,
                "ok_rate": (counts.get("ok", 0) / total) if total else 0.0,
                "outcomes": {k: counts[k] for k in sorted(counts)},
            }
        return table

    def to_dict(self) -> dict[str, Any]:
        """The JSON summary the bench embeds per policy."""
        return {
            "operations": len(self.samples),
            "violations": list(self.violations),
            "availability": self.availability(),
            "latency": {
                op: {outcome: hist.to_dict()
                     for outcome, hist in sorted(outcomes.items())}
                for op, outcomes in sorted(self.latencies().items())
            },
        }


class _Worker:
    """One client thread: issue ops, track the single-writer window."""

    def __init__(self, index: int, addresses: Sequence[Tuple[str, int]],
                 spec: LoadSpec, stop: threading.Event, started: float):
        self.index = index
        self.spec = spec
        self.stop = stop
        self.started = started
        self.rng = derived_rng(spec.seed, f"load-{index}")
        self.recorder: Optional[SpanRecorder] = None
        if spec.trace:
            self.recorder = SpanRecorder(
                MemorySpanSink(), proc=f"client-{index}",
                rng=derived_rng(spec.seed, f"trace-{index}"))
        self.client = ServiceClient(addresses, timeout=spec.timeout,
                                    rng=derived_rng(spec.seed,
                                                    f"client-{index}"),
                                    recorder=self.recorder)
        self.keys = [f"w{index}.k{slot}"
                     for slot in range(spec.keys_per_worker)]
        # Per key: every value ever issued (in order) and the position
        # of the newest *acknowledged* one.  Reads must land at or
        # after that position.
        self.issued: dict[str, list[str]] = {key: [] for key in self.keys}
        self.acked: dict[str, int] = {}
        self.samples: list[dict[str, Any]] = []
        self.violations: list[dict[str, Any]] = []
        self.serial = 0

    def run(self) -> None:
        """The thread body: operations until the stop event."""
        with self.client:
            while not self.stop.is_set():
                key = self.rng.choice(self.keys)
                if self.rng.random() < self.spec.write_ratio:
                    self._put(key)
                else:
                    self._get(key)
                if self.spec.think_s > 0:
                    pause = self.rng.expovariate(1.0 / self.spec.think_s)
                    self.stop.wait(min(pause, 0.25))

    # ------------------------------------------------------------------
    def _record(self, result: Any, key: str) -> None:
        sample = {
            "t": round(time.monotonic() - self.started, 4),
            "worker": self.index,
            "op": result.op,
            "key": key,
            "outcome": result.outcome,
            "latency": round(result.latency, 6),
            "attempts": result.attempts,
            "site": result.site,
        }
        if getattr(result, "trace", None):
            sample["trace"] = result.trace
        self.samples.append(sample)

    def _put(self, key: str) -> None:
        self.serial += 1
        value = f"w{self.index}.v{self.serial}"
        self.issued[key].append(value)
        result = self.client.put(key, value)
        self._record(result, key)
        if result.ok:
            position = len(self.issued[key]) - 1
            if position > self.acked.get(key, -1):
                self.acked[key] = position

    def _get(self, key: str) -> None:
        result = self.client.get(key)
        self._record(result, key)
        if not result.ok:
            return
        floor = self.acked.get(key, -1)
        value = result.value
        trace = getattr(result, "trace", None)
        if value is None:
            if floor >= 0:
                self._flag(key, value, floor, trace)
            return
        try:
            position = self.issued[key].index(value)
        except ValueError:
            self._flag(key, value, floor, trace)
            return
        if position < floor:
            self._flag(key, value, floor, trace)

    def _flag(self, key: str, value: Any, floor: int,
              trace: Optional[str] = None) -> None:
        expected = self.issued[key][floor] if floor >= 0 else None
        violation = {
            "invariant": "stale-read",
            "worker": self.index,
            "key": key,
            "read": value,
            "newest_acked": expected,
            "t": round(time.monotonic() - self.started, 4),
        }
        if trace:
            violation["trace"] = trace
        self.violations.append(violation)


def run_load(
    addresses: Sequence[Tuple[str, int]],
    spec: LoadSpec,
    stop: Optional[threading.Event] = None,
) -> LoadResult:
    """Drive *spec* against *addresses*; blocks for ``spec.duration``.

    An external *stop* event (optional) ends the run early — the bench
    uses one to abort load when the fault driver fails.
    """
    if not addresses:
        raise ConfigurationError("load needs at least one address")
    stop = stop or threading.Event()
    started = time.monotonic()
    workers = [_Worker(index, addresses, spec, stop, started)
               for index in range(spec.workers)]
    threads = [threading.Thread(target=worker.run,
                                name=f"load-{worker.index}", daemon=True)
               for worker in workers]
    for thread in threads:
        thread.start()
    deadline = started + spec.duration
    while time.monotonic() < deadline and not stop.is_set():
        time.sleep(0.05)
    stop.set()
    for thread in threads:
        thread.join(timeout=spec.timeout + 5.0)
    result = LoadResult()
    for worker in workers:
        result.samples.extend(worker.samples)
        result.violations.extend(worker.violations)
        if worker.recorder is not None:
            sink = worker.recorder.sink
            if isinstance(sink, MemorySpanSink):
                result.spans.extend(sink.records)
        for sample in worker.samples:
            per_op = result.outcomes.setdefault(sample["op"], {})
            per_op[sample["outcome"]] = \
                per_op.get(sample["outcome"], 0) + 1
    result.samples.sort(key=lambda sample: sample["t"])
    return result
