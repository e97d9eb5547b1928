"""A chunked, append-only on-disk time-series store.

The scraper appends one *batch* per (target, scrape tick) — the full
``MetricsRegistry.to_dict()`` series list stamped with a wall-clock
time, a target name, and any extra labels (``policy=...``).  Batches
land in numbered chunk files under one directory::

    tsdb/
      chunk-000001.tsdb
      chunk-000002.tsdb     <- active tail

Each chunk is a :class:`~repro.durable.RecordLog`; only the newest one
may end in a torn record, so a torn sealed chunk is corruption.

Chunks rotate once the active one passes ``chunk_bytes``; retention
keeps the newest ``max_chunks`` and deletes the rest, so a long bench
holds a bounded window of history, newest-biased — the same shape a
production TSDB's head/block retention takes, scaled down.

Reads flatten batches into :class:`Sample` points (one per series per
batch) for the query layer; batch labels and the target name fold into
each sample's label set so selectors can say ``{target="site-3"}``.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Union

from repro.durable import RecordLog, read_records, scan_records
from repro.errors import ConfigurationError

__all__ = [
    "CHUNK_PATTERN",
    "Sample",
    "TimeSeriesStore",
]

#: Chunk file naming scheme (zero-padded so lexical order is scan order).
CHUNK_PATTERN = re.compile(r"^chunk-(\d{6})\.tsdb$")


@dataclass(frozen=True)
class Sample:
    """One flattened point: a series value at a scrape instant.

    ``labels`` merges the series' own labels with the batch labels and
    the target name (under ``target``).  For counters and gauges
    ``value`` holds the number and ``summary`` is ``None``; for
    histograms ``value`` is ``None`` and ``summary`` holds the full
    quantile/sum/count document.
    """

    at: float
    name: str
    type: str
    labels: Mapping[str, str]
    value: Optional[float]
    summary: Optional[Mapping[str, Any]]


class TimeSeriesStore:
    """The on-disk metrics store for one bench/cluster run.

    Args:
        directory: Where chunk files live (created on first append).
        chunk_bytes: Rotate the active chunk once it reaches this size.
        max_chunks: Retention — keep at most this many chunks, newest
            first; older chunks are deleted at rotation time.
    """

    def __init__(self, directory: Union[str, pathlib.Path],
                 chunk_bytes: int = 256 * 1024, max_chunks: int = 64):
        if chunk_bytes < 1:
            raise ConfigurationError(
                f"chunk_bytes must be >= 1, got {chunk_bytes}")
        if max_chunks < 1:
            raise ConfigurationError(
                f"max_chunks must be >= 1, got {max_chunks}")
        self.directory = pathlib.Path(directory)
        self.chunk_bytes = chunk_bytes
        self.max_chunks = max_chunks
        self._log: Optional[RecordLog] = None
        self._active_size = 0

    # ------------------------------------------------------------------
    def chunk_paths(self) -> list[pathlib.Path]:
        """Existing chunk files, oldest first."""
        if not self.directory.is_dir():
            return []
        chunks = [path for path in self.directory.iterdir()
                  if CHUNK_PATTERN.match(path.name)]
        return sorted(chunks)

    def _start_chunk(self, index: int) -> RecordLog:
        """Open chunk *index* for appending, cutting any torn tail."""
        log = RecordLog(self.directory / f"chunk-{index:06d}.tsdb",
                        fsync="never")
        self._active_size = log.open().consumed
        self._log = log
        return log

    def _open_active(self) -> RecordLog:
        # Reopen the newest chunk first, even a full one: a torn tail
        # left there would otherwise be sealed in, or appended behind.
        chunks = self.chunk_paths()
        log = self._start_chunk(_chunk_index(chunks[-1]) if chunks else 1)
        if self._active_size < self.chunk_bytes:
            return log
        return self._rotate()

    def _rotate(self) -> RecordLog:
        self.close()
        chunks = self.chunk_paths()
        log = self._start_chunk(_chunk_index(chunks[-1]) + 1)
        # Retention: drop the oldest chunks beyond the cap.  The active
        # chunk is always newest, so it is never a deletion candidate.
        chunks = self.chunk_paths()
        for stale in chunks[:max(0, len(chunks) - self.max_chunks)]:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - racing deletes are fine
                pass
        return log

    def append(self, batch: Mapping[str, Any]) -> None:
        """Frame one scrape batch onto the active chunk (flushed)."""
        log = self._log or self._open_active()
        self._active_size += log.append(batch)
        if self._active_size >= self.chunk_bytes:
            self._rotate()

    def close(self) -> None:
        """Close the active chunk handle (reads never need it open)."""
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "TimeSeriesStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def batches(self) -> Iterator[dict[str, Any]]:
        """Every stored batch, oldest first.

        Only the newest chunk may carry a torn tail (a scraper killed
        mid-append); sealed chunks must be whole, and mid-chunk
        corruption anywhere raises
        :class:`~repro.errors.WALCorruptionError`.
        """
        chunks = self.chunk_paths()
        for path in chunks[:-1]:
            for entry in read_records(path, path.stat().st_size):
                if isinstance(entry, dict):
                    yield entry
        for entry in scan_records(chunks[-1]).entries if chunks else ():
            if isinstance(entry, dict):
                yield entry

    def samples(self) -> Iterator[Sample]:
        """Every stored point flattened for the query layer."""
        for batch in self.batches():
            at = batch.get("at")
            if not isinstance(at, (int, float)):
                continue
            shared = {str(k): str(v)
                      for k, v in (batch.get("labels") or {}).items()}
            target = batch.get("target")
            if target is not None:
                shared["target"] = str(target)
            for entry in batch.get("series") or ():
                if not isinstance(entry, dict):
                    continue
                name = entry.get("name")
                kind = entry.get("type")
                if not name or kind not in ("counter", "gauge", "histogram"):
                    continue
                labels = dict(shared)
                labels.update({str(k): str(v) for k, v in
                               (entry.get("labels") or {}).items()})
                if kind == "histogram":
                    yield Sample(at=float(at), name=name, type=kind,
                                 labels=labels, value=None, summary=entry)
                else:
                    value = entry.get("value")
                    if not isinstance(value, (int, float)):
                        continue
                    yield Sample(at=float(at), name=name, type=kind,
                                 labels=labels, value=float(value),
                                 summary=None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TimeSeriesStore dir={self.directory} "
                f"chunks={len(self.chunk_paths())}>")


def _chunk_index(path: pathlib.Path) -> int:
    match = CHUNK_PATTERN.match(path.name)
    return int(match.group(1)) if match else 0
