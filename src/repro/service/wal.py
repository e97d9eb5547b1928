"""A durable append-only write-ahead log with snapshot compaction.

The replicated service acks a COMMIT only after the entry is on disk;
this module is the disk half of that promise.  The log (and the
store's history log) are :mod:`repro.durable` record logs; snapshots
bound replay time, and the log is reset after each one.
"""

from __future__ import annotations

import json
import pathlib
import time as _time
from typing import Any, Optional, Union

from repro.durable import (
    FSYNC_POLICIES,
    RecordLog,
    ReplayResult,
    append_records,
    atomic_write,
    read_records,
)
from repro.errors import ConfigurationError, WALCorruptionError

__all__ = [
    "FSYNC_POLICIES",
    "ReplayResult",
    "SnapshotStore",
    "WriteAheadLog",
    "append_records",
    "read_records",
]

_LOG_NAME = "wal.log"
_SNAPSHOT_NAME = "snapshot.json"


class WriteAheadLog(RecordLog):
    """The append-only record log for one replica: ``wal.log`` under
    *directory*, reset to empty after every snapshot."""

    def __init__(self, directory: Union[str, pathlib.Path],
                 fsync: str = "always", metrics: Optional[Any] = None):
        self.directory = pathlib.Path(directory)
        super().__init__(self.directory / _LOG_NAME, fsync=fsync,
                         metrics=metrics)


class SnapshotStore:
    """Atomic state snapshots next to the WAL: a snapshot is never
    torn, so a *corrupt* one is always an error."""

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
        start = _time.perf_counter()
        # json.dumps runs the C encoder; json.dump to a handle would
        # take the pure-Python iterencode path for the same bytes.
        payload = json.dumps(document, sort_keys=True,
                             separators=(",", ":")).encode("ascii")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            atomic_write(self.path, payload)
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
