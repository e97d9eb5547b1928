"""Structured event tracing.

A :class:`Tracer` turns interesting moments — an event firing in the
kernel, a quorum test granting or denying an access, a lexicographic
tie-break — into :class:`TraceRecord` objects and hands them to a
pluggable sink.  Three sinks cover the useful space:

* :class:`NullSink` drops everything (the default; instrumented code
  pays only a ``tracer is not None`` check when no tracer is attached,
  and one extra call when a null tracer is);
* :class:`MemorySink` keeps the last *capacity* records in a ring
  buffer, for tests and interactive debugging;
* :class:`JsonlSink` appends one JSON object per record to a file —
  the format ``python -m repro trace <scenario> --out trace.jsonl``
  emits and the docs' walkthroughs read back.  Paths ending in ``.gz``
  are gzip-compressed transparently (and decompressed by
  :func:`iter_jsonl` / :func:`read_jsonl`).

Records carry a monotonically increasing sequence number, an event
``kind`` (dotted, e.g. ``"quorum.granted"``), an optional simulated
time, and free-form ``fields``.  Sets are serialised as sorted lists so
JSONL output is deterministic.
"""

from __future__ import annotations

import collections
import gzip
import io
import json
import pathlib
import warnings
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Optional, Union

from repro.durable import JsonLines

__all__ = [
    "FanoutSink",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "TraceRecord",
    "Tracer",
    "iter_jsonl",
    "read_jsonl",
]


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace event.

    Attributes:
        seq: Position in the tracer's emission order (0-based).
        kind: Dotted event name, e.g. ``"event.fired"``.
        time: Simulated time of the event, when one applies.
        fields: Event-specific payload (JSON-serialisable values).
    """

    seq: int
    kind: str
    time: Optional[float] = None
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable representation (sets become sorted lists)."""
        payload: dict[str, Any] = {"seq": self.seq, "kind": self.kind}
        if self.time is not None:
            payload["time"] = self.time
        for key, value in self.fields.items():
            payload[key] = _jsonable(value)
        return payload


def _jsonable(value: Any) -> Any:
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value


class NullSink:
    """Discards every record."""

    def emit(self, record: TraceRecord) -> None:
        """Drop *record*."""

    def close(self) -> None:
        """Nothing to release."""


class MemorySink:
    """Keeps the most recent *capacity* records in a ring buffer."""

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._buffer: collections.deque[TraceRecord] = collections.deque(
            maxlen=capacity
        )
        self.emitted = 0

    def emit(self, record: TraceRecord) -> None:
        """Append *record*, evicting the oldest when full."""
        self._buffer.append(record)
        self.emitted += 1

    def close(self) -> None:
        """Nothing to release; the buffer stays readable."""

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """The buffered records, oldest first."""
        return tuple(self._buffer)

    def of_kind(self, kind: str) -> tuple[TraceRecord, ...]:
        """Buffered records whose kind equals *kind*."""
        return tuple(r for r in self._buffer if r.kind == kind)

    def clear(self) -> None:
        """Empty the buffer (the ``emitted`` count is kept)."""
        self._buffer.clear()


class FanoutSink:
    """Forwards every record to several sinks (file + memory + ...)."""

    def __init__(self, sinks: Iterable[Any]):
        self._sinks = tuple(sinks)

    @property
    def sinks(self) -> tuple[Any, ...]:
        """The receiving sinks, in delivery order."""
        return self._sinks

    def emit(self, record: TraceRecord) -> None:
        """Deliver *record* to every sink, in order."""
        for sink in self._sinks:
            sink.emit(record)

    def close(self) -> None:
        """Close every sink, in order."""
        for sink in self._sinks:
            sink.close()


def _is_gzip_path(path: Union[str, pathlib.Path]) -> bool:
    return str(path).endswith(".gz")


class JsonlSink:
    """Writes one JSON object per record to a file or stream.

    Paths ending in ``.gz`` are written gzip-compressed.  The sink is a
    context manager; on exit (or :meth:`close`) the destination is
    flushed even when it is a borrowed stream the sink will not close —
    ``repro trace`` output is therefore never left partially buffered.

    ``fsync_every=N`` flushes *and* fsyncs the file every N records, so
    an artifact being written by an interrupted run (a chaos replay
    killed mid-violation, a crashed study) survives on disk up to the
    last synced record — :func:`iter_jsonl` then tolerates the one
    possibly truncated final line.  Off by default: durability costs
    syscalls the hot tracing path must not pay.
    """

    def __init__(self, destination: Union[str, pathlib.Path, io.TextIOBase],
                 fsync_every: Optional[int] = None):
        if fsync_every is not None and fsync_every < 1:
            raise ValueError(
                f"fsync_every must be >= 1, got {fsync_every}"
            )
        if isinstance(destination, (str, pathlib.Path)):
            if _is_gzip_path(destination):
                self._handle: Any = gzip.open(
                    destination, "wt", encoding="utf-8"
                )
            else:
                self._handle = open(destination, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = destination
            self._owns_handle = False
        self._fsync_every = fsync_every
        self.emitted = 0

    def emit(self, record: TraceRecord) -> None:
        """Write *record* as one JSON line."""
        json.dump(record.to_dict(), self._handle, separators=(",", ":"))
        self._handle.write("\n")
        self.emitted += 1
        if self._fsync_every is not None and \
                self.emitted % self._fsync_every == 0:
            self._sync()

    def _sync(self) -> None:
        """Flush and, when the handle has a file descriptor, fsync it."""
        import os

        self._handle.flush()
        try:
            os.fsync(self._handle.fileno())
        except (AttributeError, OSError, io.UnsupportedOperation):
            pass  # in-memory streams and pipes have nothing to sync

    def close(self) -> None:
        """Flush, then close the file if this sink opened it.

        Borrowed streams are flushed but stay open, so interleaving with
        other writers (stdout) keeps working.
        """
        if getattr(self._handle, "closed", False):
            return
        try:
            self._handle.flush()
        except (OSError, ValueError):  # pragma: no cover - defensive
            pass
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def iter_jsonl(
    path: Union[str, pathlib.Path]
) -> Iterator[dict[str, Any]]:
    """Stream a JSONL trace file as dictionaries, one record at a time.

    Never materialises the whole trace — million-record files cost one
    record of memory.  ``.gz`` paths are decompressed transparently.
    Unlike :mod:`repro.durable`'s cursor readers it parses a final line
    without its newline, since a trace is a finished file; if that line
    does not parse (an interrupted run) a :class:`UserWarning` ends the
    stream.  A complete line that is not JSON raises
    ``json.JSONDecodeError``: corruption, not truncation.
    """
    opener = gzip.open if _is_gzip_path(path) else open
    with opener(path, "rb") as handle:
        lines = JsonLines(handle)
        yield from lines
        if not lines.tail.strip():
            return
        try:
            record = json.loads(lines.tail)
        except ValueError:
            warnings.warn(
                f"discarding truncated final line {lines.lines} of JSONL "
                "trace (interrupted run?)",
                UserWarning,
                stacklevel=2,
            )
            return
        yield record


def read_jsonl(path: Union[str, pathlib.Path]) -> list[dict[str, Any]]:
    """Parse a JSONL trace file back into a list of dictionaries.

    Convenience wrapper over :func:`iter_jsonl` (same gzip and
    truncated-final-line handling); prefer the iterator for large
    traces.
    """
    return list(iter_jsonl(path))


class Tracer:
    """Hands structured records to a sink, with bound context fields.

    Instrumented code holds ``tracer = None`` by default and guards every
    emission with ``if tracer is not None`` — the disabled path costs one
    attribute check.  :meth:`bind` returns a child tracer that stamps
    extra fields (e.g. ``policy="LDV", config="H"``) onto every record,
    sharing the parent's sink and sequence counter.

    A tracer also carries a *clock*: drivers that know the simulated
    time call :meth:`set_time` as they advance, and records emitted
    without an explicit ``time`` are stamped with the clock's value.
    Instrumented code (protocols) stays clock-ignorant while its
    decision records still land on the simulation timeline — which is
    what lets :mod:`repro.obs.analysis.timeline` rebuild availability
    intervals from a trace.

    Usage::

        tracer = Tracer(JsonlSink("trace.jsonl"))
        tracer.record("quorum.granted", time=3.5, site=1, operation=4)
        tracer.close()
    """

    __slots__ = ("_sink", "_context", "_seq_box", "_time_box")

    def __init__(self, sink: Any = None, **context: Any):
        self._sink = sink if sink is not None else NullSink()
        self._context = dict(context)
        self._seq_box = [0]
        self._time_box: list[Optional[float]] = [None]

    @property
    def sink(self) -> Any:
        return self._sink

    @property
    def context(self) -> Mapping[str, Any]:
        return dict(self._context)

    def bind(self, **context: Any) -> "Tracer":
        """A child tracer stamping *context* onto every record."""
        child = Tracer.__new__(Tracer)
        child._sink = self._sink
        child._context = {**self._context, **context}
        child._seq_box = self._seq_box
        child._time_box = self._time_box
        return child

    def set_time(self, time: Optional[float]) -> None:
        """Advance the shared clock (``None`` stops time-stamping).

        The clock is shared with every :meth:`bind` child, so one
        driver-side call per event stamps all instrumented layers.
        """
        self._time_box[0] = time

    def record(
        self, kind: str, time: Optional[float] = None, **fields: Any
    ) -> None:
        """Emit one record of *kind* at simulated *time* (optional).

        Without an explicit *time*, the shared clock's value (see
        :meth:`set_time`) is used when one has been set.
        """
        seq = self._seq_box[0]
        self._seq_box[0] = seq + 1
        if time is None:
            time = self._time_box[0]
        if self._context:
            merged = {**self._context, **fields}
        else:
            merged = fields
        self._sink.emit(TraceRecord(seq=seq, kind=kind, time=time, fields=merged))

    def close(self) -> None:
        """Flush and close the underlying sink."""
        self._sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __iter__(self) -> Iterator[TraceRecord]:
        """Iterate buffered records when the sink keeps them in memory."""
        records = getattr(self._sink, "records", ())
        return iter(records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer sink={type(self._sink).__name__} seq={self._seq_box[0]}>"
