"""A durable append-only write-ahead log with snapshot compaction.

The replicated service acks a COMMIT only after the entry is on disk;
this module is the disk half of that promise.  The format is a flat
sequence of CRC-checked records::

    +------------------+----------------+----------------------+
    | length (4B, BE)  | crc32 (4B, BE) | payload (JSON bytes) |
    +------------------+----------------+----------------------+

Recovery reuses the run registry's truncation-tolerant cursor idiom
(:meth:`repro.obs.registry.store.RunRegistry.read_index_from`): a
*torn final record* — one whose bytes stop at end-of-file, the
signature of a crash mid-append — is dropped silently and the log is
truncated back to the last complete record.  Corruption anywhere
earlier (a bad CRC or undecodable payload followed by more data) means
the disk lied, and recovery refuses to guess: it raises
:class:`~repro.errors.WALCorruptionError`.

Snapshots bound replay time: :meth:`SnapshotStore.save` writes the
state atomically (tmp + fsync + rename), after which the log is
truncated and replay starts from the snapshot instead of from genesis.
The same record framing serves the store's append-only history log
(:func:`append_records`, :func:`read_records`), so there is one codec.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import time as _time
import zlib
from typing import Any, BinaryIO, Iterable, Iterator, Optional, Union

from repro.errors import ConfigurationError, WALCorruptionError

__all__ = [
    "FSYNC_POLICIES",
    "ReplayResult",
    "SnapshotStore",
    "WriteAheadLog",
    "append_records",
    "read_records",
]

#: Accepted fsync policies: ``"always"`` fsyncs after every append (an
#: ack then really means durable), ``"never"`` leaves flushing to the
#: OS (fast, loses the tail on power failure — crash-safe only against
#: process death, which is what the chaos harness injects).
FSYNC_POLICIES = ("always", "never")

_RECORD = struct.Struct(">II")

#: Upper bound on one record's payload; a length prefix above this is
#: treated as corruption rather than an allocation request.
MAX_RECORD_BYTES = 64 * 1024 * 1024

_LOG_NAME = "wal.log"
_SNAPSHOT_NAME = "snapshot.json"


class ReplayResult:
    """What :meth:`WriteAheadLog.open` recovered from disk.

    Attributes:
        entries: The decoded records, oldest first.
        consumed: Byte offset of the last complete record's end.
        torn_bytes: Size of the dropped torn tail (0 for a clean log).
    """

    __slots__ = ("entries", "consumed", "torn_bytes")

    def __init__(self, entries: list, consumed: int, torn_bytes: int):
        self.entries = entries
        self.consumed = consumed
        self.torn_bytes = torn_bytes


def _encode_record(entry: Any) -> bytes:
    """One framed record: ``[length][crc32][canonical JSON]``."""
    payload = json.dumps(
        entry, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise ConfigurationError(
            f"WAL record of {len(payload)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte limit"
        )
    return _RECORD.pack(len(payload), zlib.crc32(payload)) + payload


def _records(handle: BinaryIO, size: int,
             origin: str) -> Iterator[tuple[Any, int]]:
    """Yield ``(entry, end offset)`` for every complete record in the
    first *size* bytes of *handle*, one record in memory at a time.

    Stops quietly at a torn final record; the caller compares the last
    end offset with *size* to learn how many torn bytes there were.
    """
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


def _scan(path: pathlib.Path) -> ReplayResult:
    """Decode every complete record of the log at *path* (read-only),
    tolerating a torn tail; a missing file is an empty log."""
    if not path.exists():
        return ReplayResult([], 0, 0)
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        entries: list[Any] = []
        consumed = 0
        for entry, consumed in _records(handle, size, str(path)):
            entries.append(entry)
    return ReplayResult(entries, consumed, size - consumed)


def append_records(path: pathlib.Path, entries: Iterable[Any],
                   truncate: bool = False) -> int:
    """Append *entries* to the record log at *path* with one write and
    one fsync (or replace its contents, with *truncate*); returns the
    file's size afterwards.

    Raises:
        ConfigurationError: when the file cannot be written.
    """
    blob = b"".join(_encode_record(entry) for entry in entries)
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


def read_records(path: pathlib.Path, size: int) -> Iterator[Any]:
    """Stream the records in the first *size* bytes of *path*, one at a
    time; bytes past *size* are ignored.

    The caller vouches that those *size* bytes were fsynced whole, so a
    short file or a torn record inside them is corruption, not a crash.

    Raises:
        WALCorruptionError: when the records do not fill *size* bytes.
    """
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


class WriteAheadLog:
    """The append-only record log for one replica.

    Use :meth:`open` to recover existing records and position the log
    for appending; every :meth:`append` then writes one durable record
    (honouring the fsync policy) before returning.
    """

    def __init__(self, directory: Union[str, pathlib.Path],
                 fsync: str = "always", metrics: Optional[Any] = None):
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.directory = pathlib.Path(directory)
        self.fsync = fsync
        #: Optional MetricsRegistry; when set, every append records
        #: write/flush and fsync latency series plus record/byte counts.
        self.metrics = metrics
        self._handle: Optional[Any] = None

    @property
    def path(self) -> pathlib.Path:
        """Location of the log file."""
        return self.directory / _LOG_NAME

    # ------------------------------------------------------------------
    def open(self) -> ReplayResult:
        """Recover existing records and open the log for appending.

        A torn final record is dropped and the file truncated back to
        the last complete record, exactly like the registry's index
        cursor leaves a torn final line unconsumed.

        Raises:
            WALCorruptionError: on mid-log corruption (recovery must
                not guess what the lost records said).
            ConfigurationError: when the directory cannot be created
                or the log cannot be opened.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            result = _scan(self.path)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open WAL under {self.directory}: {exc}"
            ) from exc
        try:
            handle = open(self.path, "ab")
            if result.torn_bytes:
                handle.truncate(result.consumed)
            self._handle = handle
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open WAL under {self.directory}: {exc}"
            ) from exc
        return result

    def append(self, entry: Any) -> None:
        """Write one record; durable by the time this returns (policy
        ``"always"``)."""
        if self._handle is None:
            raise ConfigurationError("WAL is not open")
        record = _encode_record(entry)
        try:
            start = _time.perf_counter()
            self._handle.write(record)
            self._handle.flush()
            flushed = _time.perf_counter()
            if self.fsync == "always":
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot append to WAL {self.path}: {exc}"
            ) from exc
        if self.metrics is not None:
            self.metrics.histogram("wal.append.seconds").observe(
                flushed - start)
            if self.fsync == "always":
                self.metrics.histogram("wal.fsync.seconds").observe(
                    _time.perf_counter() - flushed)
            self.metrics.counter("wal.records").inc()
            self.metrics.counter("wal.bytes").inc(len(record))

    def read(self) -> ReplayResult:
        """The log's complete records, read without opening it for
        appending or truncating a torn tail (offline inspection)."""
        return _scan(self.path)

    def sync(self) -> None:
        """Force buffered records to disk regardless of policy."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def reset(self) -> None:
        """Truncate the log to empty (called right after a snapshot)."""
        if self._handle is None:
            raise ConfigurationError("WAL is not open")
        try:
            self._handle.truncate(0)
            self._handle.seek(0)
            self._handle.flush()
            if self.fsync == "always":
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot truncate WAL {self.path}: {exc}"
            ) from exc

    def close(self) -> None:
        """Close the underlying file handle."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        self.open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SnapshotStore:
    """Atomic state snapshots next to the WAL.

    The write path is tmp + fsync + rename, so a crash mid-snapshot
    leaves the previous snapshot intact; a reader never sees a torn
    snapshot, which is why a *corrupt* one is always an error.
    """

    def __init__(self, directory: Union[str, pathlib.Path],
                 metrics: Optional[Any] = None):
        self.directory = pathlib.Path(directory)
        self.metrics = metrics

    @property
    def path(self) -> pathlib.Path:
        """Location of the snapshot file."""
        return self.directory / _SNAPSHOT_NAME

    def save(self, document: Any) -> None:
        """Atomically replace the snapshot with *document*."""
        tmp = self.path.with_suffix(".json.tmp")
        start = _time.perf_counter()
        # json.dumps runs the C encoder; json.dump to a handle would
        # take the pure-Python iterencode path for the same bytes.
        payload = json.dumps(document, sort_keys=True,
                             separators=(",", ":")).encode("ascii")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            tmp.replace(self.path)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot write snapshot {self.path}: {exc}"
            ) from exc
        if self.metrics is not None:
            self.metrics.histogram("wal.snapshot.seconds").observe(
                _time.perf_counter() - start)
            self.metrics.counter("wal.snapshots").inc()

    def load(self) -> Optional[Any]:
        """The last saved document, or ``None`` when no snapshot exists.

        Raises:
            WALCorruptionError: if the snapshot exists but does not
                decode — the atomic write rules out tearing, so a bad
                snapshot means the disk lied.
        """
        if not self.path.exists():
            return None
        try:
            return json.loads(self.path.read_bytes())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WALCorruptionError(
                f"corrupt snapshot {self.path}: {exc}"
            ) from exc
