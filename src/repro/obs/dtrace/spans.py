"""Spans and span recorders: the write side of distributed tracing.

A :class:`Span` is one timed unit of work on one process — a client
operation, a replica-side quorum round, one peer RPC, a chaos-proxy
verdict.  Spans form a tree across processes through the parent ids
carried in the frames' ``ctx`` field; each process appends its
finished spans to its own log (the replica's sits next to its WAL),
and the collector (:mod:`repro.obs.dtrace.collect`) merges the logs
back into trace trees.

The recording discipline matches the tracer and profiler: code under
instrumentation pays one ``recorder is None`` check when tracing is
off, and every span write is one JSON line appended to the sink —
append-only so a replica restarting over its data directory extends
the same log.  A SIGKILL can tear the final line; the collector reads
leniently.
"""

from __future__ import annotations

import pathlib
import random
import threading
import time
from typing import Any, Mapping, Optional, Union

from repro.durable import JsonLinesWriter
from repro.obs.dtrace.context import (
    LamportClock,
    WireContext,
    ctx_to_wire,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "JsonlSpanSink",
    "MemorySpanSink",
    "Span",
    "SpanRecorder",
    "SPAN_LOG_NAME",
]

#: Canonical file name for a process's span log.  The collector globs
#: for ``*spans.jsonl``, so prefixed variants (``proxy.spans.jsonl``,
#: ``client.spans.jsonl``) are found too.
SPAN_LOG_NAME = "spans.jsonl"


class MemorySpanSink:
    """Collects span records in a list (loadgen workers, tests)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def write(self, record: dict[str, Any]) -> None:
        """Append *record* to :attr:`records`."""
        self.records.append(record)

    def close(self) -> None:
        """Nothing to release; kept for sink-protocol symmetry."""


class JsonlSpanSink:
    """Appends one JSON line per finished span, flushed per record.

    Opened in append mode: a replica restarting over its surviving
    data directory keeps extending the same log rather than erasing
    the spans from before the crash.
    """

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._writer = JsonLinesWriter(self.path, separators=(",", ":"))
        self._lock = threading.Lock()

    def write(self, record: dict[str, Any]) -> None:
        """Append *record* as one canonical JSON line (no-op if closed)."""
        with self._lock:
            self._writer.append(record)

    def close(self) -> None:
        """Close the log file; later writes become no-ops."""
        with self._lock:
            self._writer.close()


class Span:
    """One unit of work; create via :meth:`SpanRecorder.span`.

    The Lamport pair ``lc = [start, end]`` brackets every event the
    span caused: sends tick the process clock, receives fold the
    remote value in, so cross-process children always start at a
    larger clock value than the send that carried their context.
    """

    __slots__ = ("_recorder", "trace_id", "span_id", "parent_id",
                 "name", "proc", "start", "dur", "lc_start", "lc_end",
                 "status", "attrs", "events", "_finished")

    def __init__(self, recorder: "SpanRecorder", trace_id: str,
                 span_id: str, parent_id: Optional[str], name: str,
                 lc_start: int, attrs: Optional[dict[str, Any]] = None):
        self._recorder = recorder
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.proc = recorder.proc
        self.start = time.time()
        self.dur = 0.0
        self.lc_start = lc_start
        self.lc_end = lc_start
        self.status = "ok"
        self.attrs: dict[str, Any] = dict(attrs or {})
        self.events: list[dict[str, Any]] = []
        self._finished = False

    # ------------------------------------------------------------------
    def event(self, name: str, **fields: Any) -> int:
        """Record a point event (local tick); returns the new clock."""
        lc = self._recorder.clock.tick()
        self._push_event(name, lc, fields)
        return lc

    def sent(self, **fields: Any) -> dict[str, Any]:
        """Record a send and return the wire ``ctx`` to attach.

        The returned object carries *this* span's id, so whatever the
        receiver records becomes a child of this span.
        """
        lc = self._recorder.clock.tick()
        self._push_event("send", lc, fields)
        return ctx_to_wire(self.trace_id, self.span_id, lc)

    def received(self, remote_lc: int, **fields: Any) -> int:
        """Fold a remote clock value in (reply observed)."""
        lc = self._recorder.clock.observe(remote_lc)
        self._push_event("recv", lc, fields)
        return lc

    def annotate(self, **attrs: Any) -> None:
        """Merge *attrs* into the span's attributes."""
        self.attrs.update(attrs)

    def finish(self, status: str = "ok", **attrs: Any) -> None:
        """Close the span and hand it to the recorder's sink."""
        if self._finished:
            return
        self._finished = True
        self.status = status
        self.attrs.update(attrs)
        self.dur = max(0.0, time.time() - self.start)
        self.lc_end = self._recorder.clock.tick()
        self._recorder._write(self)

    # ------------------------------------------------------------------
    def wire_context(self) -> dict[str, Any]:
        """A ``ctx`` for a frame sent on this span's behalf (ticks)."""
        return self.sent()

    def _push_event(self, name: str, lc: int,
                    fields: Mapping[str, Any]) -> None:
        event: dict[str, Any] = {
            "name": name,
            "lc": lc,
            "t": round(time.time() - self.start, 6),
        }
        for key, value in fields.items():
            event[key] = value
        self.events.append(event)

    def to_dict(self) -> dict[str, Any]:
        """The JSON record appended to the span log."""
        record: dict[str, Any] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "proc": self.proc,
            "name": self.name,
            "start": round(self.start, 6),
            "dur": round(self.dur, 6),
            "lc": [self.lc_start, self.lc_end],
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if self.events:
            record["events"] = self.events
        return record


class SpanRecorder:
    """One process's span factory: a clock, an identity, a sink.

    Args:
        sink: Where finished spans go (:class:`JsonlSpanSink` for the
            replicas and the proxy, :class:`MemorySpanSink` for the
            in-process load workers).
        proc: Process label stamped on every span (``"site-3"``,
            ``"proxy"``, ``"client-0"``).
        rng: Seeded id source, for reproducible trace ids in tests.
    """

    def __init__(self, sink: Any, proc: str,
                 rng: Optional[random.Random] = None):
        self.sink = sink
        self.proc = proc
        self.clock = LamportClock()
        self._rng = rng

    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        ctx: Optional[WireContext] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span: root, local child, or remote child via *ctx*."""
        if ctx is not None:
            trace_id, parent_id, remote_lc = ctx
            lc_start = self.clock.observe(remote_lc)
        elif parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
            lc_start = self.clock.tick()
        else:
            trace_id, parent_id = new_trace_id(self._rng), None
            lc_start = self.clock.tick()
        return Span(self, trace_id, new_span_id(self._rng), parent_id,
                    name, lc_start, attrs or None)

    def close(self) -> None:
        """Close the underlying sink."""
        self.sink.close()

    # ------------------------------------------------------------------
    def _write(self, span: Span) -> None:
        self.sink.write(span.to_dict())
