"""Crash-safe files: each on-disk crash contract, implemented once.

* Framed records ``[length 4B BE][crc32 4B BE][JSON]``: a torn final
  record is dropped (and cut away on open); corruption before it
  raises :class:`~repro.errors.WALCorruptionError`.
* JSON lines: a record exists once its newline does; a complete line
  that is not JSON raises :class:`CorruptLineError`.  Differing on
  purpose, ``obs.tracer.iter_jsonl`` parses a finished trace's
  newline-less final line and ``obs.dtrace.read_span_log`` skips junk.
* Atomic replace: readers see the old bytes or the new, never a mix.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import pathlib
import struct
import time as _time
import zlib
from typing import (
    Any, BinaryIO, Iterable, Iterator, NamedTuple, Optional, Union,
)

from repro.errors import ConfigurationError, WALCorruptionError

__all__ = [
    "FSYNC_POLICIES",
    "CorruptLineError",
    "JsonLines",
    "JsonLinesWriter",
    "RecordLog",
    "ReplayResult",
    "append_records",
    "atomic_write",
    "encode_record",
    "json_line",
    "read_json_lines",
    "read_records",
    "scan_records",
]

PathLike = Union[str, pathlib.Path]


def atomic_write(path: PathLike, data: bytes) -> None:
    """Replace *path* with *data*: tmp + fsync + rename.  Raises
    :class:`OSError`; callers wrap it in their own type.

    The directory is not fsynced: at one snapshot per 64 commits that
    cost ``service_serial`` 14 % of its throughput on a 2-core ext4 VM
    (EXPERIMENTS.md, "Storage — one implementation per crash contract").
    """
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


#: ``"always"`` fsyncs after every append (an ack means durable);
#: ``"never"`` survives process death but not power loss.
FSYNC_POLICIES = ("always", "never")

_RECORD = struct.Struct(">II")

#: A length prefix above this is corruption, not an allocation request.
MAX_RECORD_BYTES = 64 * 1024 * 1024


class ReplayResult(NamedTuple):
    """The complete records of a log, the byte offset where the last
    one ends, and the size of the torn tail dropped after it."""

    entries: list
    consumed: int
    torn_bytes: int


def encode_record(entry: Any) -> bytes:
    """One framed record; ConfigurationError past MAX_RECORD_BYTES."""
    payload = json.dumps(
        entry, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise ConfigurationError(
            f"record of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte limit"
        )
    return _RECORD.pack(len(payload), zlib.crc32(payload)) + payload


def _records(handle: BinaryIO, size: int,
             origin: str) -> Iterator[tuple[Any, int]]:
    """Yield ``(entry, end offset)`` for each complete record in the
    first *size* bytes of *handle*; stops quietly at a torn one."""
    offset = 0
    while offset + _RECORD.size <= size:  # else: torn header at EOF
        header = handle.read(_RECORD.size)
        if len(header) < _RECORD.size:
            return  # the file is shorter than *size*
        length, crc = _RECORD.unpack(header)
        if length > MAX_RECORD_BYTES:
            raise WALCorruptionError(
                f"{origin}: record at byte {offset} claims {length} bytes "
                f"(limit {MAX_RECORD_BYTES}) — corrupt length prefix"
            )
        end = offset + _RECORD.size + length
        if end > size:
            return  # torn payload at end-of-file
        payload = handle.read(length)
        if len(payload) < length:
            return
        if zlib.crc32(payload) != crc:
            if end == size:
                return  # torn final record: length landed, payload did not
            raise WALCorruptionError(
                f"{origin}: CRC mismatch at byte {offset} with "
                f"{size - end} bytes following — mid-log corruption"
            )
        try:
            entry = json.loads(payload)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            # The CRC matched, so these are exactly the bytes that were
            # written: a non-JSON payload is a writer bug or tampering,
            # never a torn append.
            raise WALCorruptionError(
                f"{origin}: undecodable record at byte {offset}: {exc}"
            ) from exc
        yield entry, end
        offset = end


def scan_records(path: PathLike) -> ReplayResult:
    """Every complete record of the log at *path*, read-only; a missing
    file is an empty log.  WALCorruptionError before the final record."""
    path = pathlib.Path(path)
    if not path.exists():
        return ReplayResult([], 0, 0)
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        entries: list[Any] = []
        consumed = 0
        for entry, consumed in _records(handle, size, str(path)):
            entries.append(entry)
    return ReplayResult(entries, consumed, size - consumed)


def append_records(path: PathLike, entries: Iterable[Any],
                   truncate: bool = False) -> int:
    """Append *entries* to the record log at *path* with one write and
    one fsync (or replace its contents, with *truncate*); returns the
    file's size afterwards.  ConfigurationError when it cannot."""
    blob = b"".join(encode_record(entry) for entry in entries)
    try:
        with open(path, "wb" if truncate else "ab") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
            return handle.tell()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot append to record log {path}: {exc}"
        ) from exc


def read_records(path: PathLike, size: int) -> Iterator[Any]:
    """Stream the records in the first *size* bytes of *path*, which
    the caller vouches were written whole (an fsynced append, a sealed
    chunk): WALCorruptionError unless they fill exactly *size* bytes."""
    if size == 0:
        return
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise WALCorruptionError(f"cannot read {path}: {exc}") from exc
    with handle:
        consumed = 0
        for entry, consumed in _records(handle, size, str(path)):
            yield entry
    if consumed != size:
        raise WALCorruptionError(
            f"{path}: records end at byte {consumed}, expected {size}"
        )


class RecordLog:
    """One append-only framed-record file, fsynced per append under
    policy ``"always"``.  With *metrics* (a MetricsRegistry) appends
    record ``wal.append.seconds`` / ``wal.fsync.seconds`` and count
    ``wal.records`` / ``wal.bytes``."""

    def __init__(self, path: PathLike, fsync: str = "always",
                 metrics: Optional[Any] = None):
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self.metrics = metrics
        self._handle: Optional[Any] = None

    def open(self) -> ReplayResult:
        """Recover the records and cut a torn tail, so the next append
        starts on a record boundary.  WALCorruptionError on corruption
        before the final record; ConfigurationError if it cannot open."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            result = scan_records(self.path)
            handle = open(self.path, "ab")
            if result.torn_bytes:
                handle.truncate(result.consumed)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open record log {self.path}: {exc}"
            ) from exc
        self._handle = handle
        return result

    def append(self, entry: Any) -> int:
        """Write one record and return its size in bytes."""
        if self._handle is None:
            raise ConfigurationError(f"record log {self.path} is not open")
        record = encode_record(entry)
        try:
            start = _time.perf_counter()
            self._handle.write(record)
            self._handle.flush()
            flushed = _time.perf_counter()
            if self.fsync == "always":
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot append to {self.path}: {exc}"
            ) from exc
        if self.metrics is not None:
            self.metrics.histogram("wal.append.seconds").observe(
                flushed - start)
            if self.fsync == "always":
                self.metrics.histogram("wal.fsync.seconds").observe(
                    _time.perf_counter() - flushed)
            self.metrics.counter("wal.records").inc()
            self.metrics.counter("wal.bytes").inc(len(record))
        return len(record)

    def read(self) -> ReplayResult:
        """The complete records, without opening or repairing the log."""
        return scan_records(self.path)

    def reset(self) -> None:
        """Truncate the log to empty."""
        if self._handle is None:
            raise ConfigurationError(f"record log {self.path} is not open")
        try:
            self._handle.truncate(0)
            self._handle.seek(0)
            self._handle.flush()
            if self.fsync == "always":
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot truncate {self.path}: {exc}"
            ) from exc

    def close(self) -> None:
        """Close the underlying file handle."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RecordLog":
        self.open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class CorruptLineError(json.JSONDecodeError):
    """A complete line that is not JSON; ``offset`` is where it starts."""

    def __init__(self, offset: int, line: bytes, cause: ValueError):
        super().__init__(getattr(cause, "msg", str(cause)),
                         line.decode("utf-8", "replace"),
                         getattr(cause, "pos", 0))
        self.offset = offset


def json_line(record: Any,
              separators: Optional[tuple[str, str]] = None) -> bytes:
    """*record* as one sorted-key JSON line, newline included."""
    return (json.dumps(record, sort_keys=True, separators=separators)
            + "\n").encode("utf-8")


class JsonLines:
    """Iterate the JSON values on the complete, non-blank lines of a
    binary handle positioned at byte *offset*.  Afterwards ``position``
    is the offset past the last complete line, ``lines`` counts lines
    seen and ``tail`` holds the unparsed newline-less rest."""

    def __init__(self, handle: Iterable[bytes], offset: int = 0):
        self._handle = handle
        self.position = offset
        self.lines = 0
        self.tail = b""

    def __iter__(self) -> Iterator[Any]:
        for raw in self._handle:
            self.lines += 1
            if not raw.endswith(b"\n"):
                self.tail = raw
                return
            start, self.position = self.position, self.position + len(raw)
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise CorruptLineError(start, line, exc) from exc
            yield record


def read_json_lines(handle: BinaryIO,
                    offset: int = 0) -> tuple[list[dict[str, Any]], int]:
    """The objects on the complete lines from byte *offset* of *handle*,
    and the cursor to resume from (past the last complete line)."""
    handle.seek(offset)
    lines = JsonLines(handle, offset)
    records = [record for record in lines if isinstance(record, dict)]
    return records, lines.position


@contextlib.contextmanager
def _locked(handle: BinaryIO) -> Iterator[None]:
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class JsonLinesWriter:
    """Append JSON lines to *path* (created when missing), one flushed
    line per record.

    Every append holds an exclusive ``flock``, so a writer never sees
    another mid-line: a newline-less tail found at open is a dead
    writer's torn line, cut away before it can swallow the next record.
    Raises :class:`OSError` when the file cannot be opened or repaired.
    """

    def __init__(self, path: PathLike,
                 separators: Optional[tuple[str, str]] = None):
        self.path = pathlib.Path(path)
        self._separators = separators
        handle = open(self.path, "a+b")
        try:
            with _locked(handle):
                handle.seek(max(handle.seek(0, os.SEEK_END) - 1, 0))
                if handle.read(1) not in (b"", b"\n"):  # a torn line
                    handle.seek(0)
                    handle.truncate(handle.read().rfind(b"\n") + 1)
        except OSError:
            handle.close()
            raise
        self._handle: Optional[BinaryIO] = handle

    def append(self, record: Any) -> None:
        """Write *record* as one line and flush it (no-op once closed)."""
        if self._handle is not None:
            with _locked(self._handle):
                self._handle.write(json_line(record, self._separators))
                self._handle.flush()

    def close(self) -> None:
        """Close the file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._handle is None

    def __enter__(self) -> "JsonLinesWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
