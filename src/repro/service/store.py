"""Durable per-replica state: ``(o, v, P)`` + key-value data + history.

A :class:`DurableReplica` composes the WAL and snapshot store into the
state machine one replica process owns.  Every COMMIT is appended to
the WAL *before* it is applied in memory (and long before it is acked
over the wire), so a SIGKILL at any point leaves a state that replay
reconstructs exactly.

Three files hold a replica: ``wal.log`` (commits since the last
compaction), ``snapshot.json`` (state, data and the newest history
entry, so opening never reads the log) and an append-only history log
(every applied commit's history entry, in the WAL's record framing).
A compaction costs O(state + commits since the last one), never
O(age): it appends the new history entries, then saves the snapshot
naming how many history bytes it covers, then resets the WAL — so a
crash between any two steps leaves either the old snapshot (the WAL
still holds the entries; the history log's uncovered bytes are cut off
on open) or the new one (the WAL entries it covers are skipped on
replay).

Determinism is the load-bearing property here: the canonical document
(:meth:`DurableReplica.canonical_document`) of a replica recovered
from snapshot + WAL must be byte-identical to one produced by a clean
replay of the same commits — the crash-recovery tests and the bench's
post-kill verification both compare these bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Iterable, Iterator, Mapping, Optional, Union

from repro.core.rounds import commit_body
from repro.errors import ConfigurationError, ProtocolError, WALCorruptionError
from repro.replica.state import ReplicaState
from repro.service.wal import (
    SnapshotStore,
    WriteAheadLog,
    append_records,
    read_records,
)

__all__ = [
    "DurableReplica",
    "commit_body",
    "read_history",
    "writes_digest",
]

_SNAPSHOT_FORMAT = "repro-service-snapshot"
#: Version 2 is state-only and names its history log; version 1
#: carried the whole history inline and is still read (the next
#: compaction rewrites it as version 2).
_SNAPSHOT_VERSION = 2
_READABLE_VERSIONS = (1, 2)


def _history_name(generation: int) -> str:
    """The history log of one generation; :meth:`install_remote` starts
    a new generation so replacing the history is crash-atomic."""
    return "history.log" if generation == 0 else f"history.{generation}.log"


def writes_digest(writes: Optional[Mapping[str, Any]]) -> Optional[str]:
    """A short stable digest of a commit's write set (``None`` for
    data-free commits) — what the divergence check compares instead of
    whole payloads."""
    if writes is None:
        return None
    payload = json.dumps(writes, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _history_entry(entry: Mapping[str, Any], index: int,
                   origin: Any) -> dict[str, Any]:
    """The history record of WAL *entry* applied as commit *index*."""
    try:
        operation = int(entry["operation"])
        version = int(entry["version"])
        partition_set = sorted({int(s) for s in entry["partition_set"]})
        kind = str(entry["kind"])
        if any(not isinstance(entry.get(name, {}), (dict, type(None)))
               for name in ("data", "writes")):
            raise TypeError("data and writes must be maps")
    except (KeyError, TypeError, ValueError) as exc:
        raise WALCorruptionError(
            f"malformed WAL entry in {origin}: {exc}"
        ) from exc
    # A repair re-delivery carries the original commit's digest
    # explicitly (its payload is a full map install, not the write
    # delta); first-hand commits derive it from the delta.
    if "writes_digest" in entry:
        digest = entry["writes_digest"]
    else:
        digest = writes_digest(entry.get("writes"))
    return {
        "index": index,
        "kind": kind,
        "operation": operation,
        "version": version,
        "partition_set": partition_set,
        "writes_digest": digest,
    }


def _uncovered(entries: Iterable[Mapping[str, Any]], operation: int,
               origin: Any) -> Iterator[Mapping[str, Any]]:
    """The WAL *entries* a snapshot at *operation* does not hold yet.

    A crash between the snapshot rename and the WAL reset leaves
    entries the snapshot already covers; a replica only logs commits
    :meth:`DurableReplica.accepts` (strictly newer), so those are
    exactly the entries numbered ``<= operation``.
    """
    for entry in entries:
        try:
            newer = int(entry["operation"]) > operation
        except (KeyError, TypeError, ValueError) as exc:
            raise WALCorruptionError(
                f"malformed WAL entry in {origin}: {exc}"
            ) from exc
        if newer:
            yield entry


def _snapshot_fields(snapshot: Mapping[str, Any],
                     origin: Any) -> tuple[int, int]:
    """``(applied_index, operation)`` of a snapshot, validated."""
    if snapshot.get("format") != _SNAPSHOT_FORMAT:
        raise WALCorruptionError(f"{origin} is not a service snapshot")
    if snapshot.get("version") not in _READABLE_VERSIONS:
        raise WALCorruptionError(
            f"unsupported snapshot version {snapshot.get('version')!r}"
        )
    try:
        return (int(snapshot["applied_index"]),
                int(snapshot["state"]["operation"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise WALCorruptionError(
            f"malformed snapshot {origin}: {exc}") from exc


def _snapshot_history(directory: pathlib.Path,
                      snapshot: Mapping[str, Any]) -> Iterable[Any]:
    """The history a (validated) snapshot covers, streamed from its log
    — or the inline list of a version-1 snapshot."""
    try:
        if snapshot["version"] == 1:
            return snapshot["history"]
        path = directory / _history_name(int(snapshot["history_generation"]))
        return read_records(path, int(snapshot["history_bytes"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise WALCorruptionError(
            f"malformed snapshot in {directory}: {exc}") from exc


def read_history(
    directory: Union[str, pathlib.Path],
) -> Iterator[dict[str, Any]]:
    """Stream one replica's full commit history from its directory.

    Yields the history the snapshot covers, then one entry per WAL
    record it does not — the same sequence :meth:`DurableReplica.open`
    would build as ``history``, but one record in memory at a time and
    without touching the files (a torn WAL tail is ignored, not cut).

    Raises:
        WALCorruptionError: on a corrupt snapshot, history log or
            mid-log WAL record.
    """
    directory = pathlib.Path(directory)
    snapshots = SnapshotStore(directory)
    snapshot = snapshots.load()
    index = operation = 0
    if snapshot is not None:
        index, operation = _snapshot_fields(snapshot, snapshots.path)
        yield from _snapshot_history(directory, snapshot)
    wal = WriteAheadLog(directory)
    for entry in _uncovered(wal.read().entries, operation, wal.path):
        index += 1
        yield _history_entry(entry, index, wal.path)


class DurableReplica:
    """One replica's durable state machine.

    Use :meth:`open` to create-or-recover; then :meth:`commit` for
    every accepted COMMIT.  The in-memory members (``state``, ``data``,
    ``latest``) are only ever mutated by applying WAL entries, which
    is what makes recovery equal to a replay.  Memory is O(state), not
    O(age): besides ``latest`` (the newest history entry, all the
    protocol reads) it keeps only ``_tail``, the entries not yet in the
    history log; :attr:`history` reads the full list from disk.
    """

    def __init__(
        self,
        directory: Union[str, pathlib.Path],
        site_id: int,
        copy_sites: Iterable[int],
        fsync: str = "always",
        compact_every: int = 256,
        metrics: Optional[Any] = None,
    ):
        if compact_every < 1:
            raise ConfigurationError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        self.directory = pathlib.Path(directory)
        self.site_id = int(site_id)
        self.copy_sites = frozenset(int(s) for s in copy_sites)
        if self.site_id not in self.copy_sites:
            raise ConfigurationError(
                f"site {self.site_id} not among copy sites "
                f"{sorted(self.copy_sites)}"
            )
        self.compact_every = compact_every
        self.wal = WriteAheadLog(self.directory, fsync=fsync,
                                 metrics=metrics)
        self.snapshots = SnapshotStore(self.directory, metrics=metrics)
        self.state = ReplicaState(self.site_id,
                                  partition_set=self.copy_sites)
        self.data: dict[str, Any] = {}
        self.latest: Optional[dict[str, Any]] = None
        self.applied_index = 0
        self.torn_tail_bytes = 0
        self._history_generation = 0
        self._history_bytes = 0
        self._tail: list[dict[str, Any]] = []

    @property
    def history(self) -> list[dict[str, Any]]:
        """Every applied commit's history entry, oldest first, read on
        demand from the replica's files (:func:`read_history`) — which
        hold everything applied, since the WAL is written first."""
        return list(read_history(self.directory))

    @property
    def history_path(self) -> pathlib.Path:
        """The current generation's append-only history log."""
        return self.directory / _history_name(self._history_generation)

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        directory: Union[str, pathlib.Path],
        site_id: int,
        copy_sites: Iterable[int],
        fsync: str = "always",
        compact_every: int = 256,
        metrics: Optional[Any] = None,
    ) -> "DurableReplica":
        """Create a replica store, recovering any on-disk state.

        *metrics* (a :class:`~repro.obs.metrics.MetricsRegistry`) turns
        on WAL append/fsync and snapshot-save timing series; ``None``
        keeps the write path free of instrumentation branches' cost.

        Raises:
            WALCorruptionError: on mid-log WAL or snapshot corruption, or
                a history log shorter than the snapshot says (its records
                are checked when :func:`read_history` streams them).
        """
        store = cls(directory, site_id, copy_sites,
                    fsync=fsync, compact_every=compact_every,
                    metrics=metrics)
        snapshot = store.snapshots.load()
        covered = 0
        if snapshot is not None:
            store._install_snapshot(snapshot)
            covered = store.state.operation
        store._trim_history_logs()
        replay = store.wal.open()
        store.torn_tail_bytes = replay.torn_bytes
        for entry in _uncovered(replay.entries, covered, store.wal.path):
            store._apply(entry)
        return store

    def _install_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        self.applied_index, _ = _snapshot_fields(snapshot,
                                                 self.snapshots.path)
        try:
            self.state = ReplicaState.from_dict(snapshot["state"])
            self.data = dict(snapshot["data"])
            if snapshot["version"] > 1:
                self._history_generation = int(
                    snapshot["history_generation"])
                self._history_bytes = int(snapshot["history_bytes"])
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise WALCorruptionError(
                f"malformed snapshot {self.snapshots.path}: {exc}"
            ) from exc
        if snapshot["version"] == 1:
            # Not in any log yet: the next compaction appends all of it.
            self._tail = list(_snapshot_history(self.directory, snapshot))
            self.latest = self._tail[-1] if self._tail else None
        elif "latest" in snapshot:
            self.latest = snapshot["latest"]
        else:  # written before snapshots named their latest entry
            for entry in _snapshot_history(self.directory, snapshot):
                self.latest = entry

    def _trim_history_logs(self) -> None:
        """Cut the history log back to what the snapshot covers (an
        append that crashed before its snapshot landed; the WAL still
        holds those entries) and delete other generations' logs.  A log
        shorter than the snapshot says is corruption."""
        current = self.history_path
        try:
            size = current.stat().st_size if current.exists() else 0
            if size < self._history_bytes:
                raise WALCorruptionError(
                    f"{current}: {size} bytes, but the snapshot covers "
                    f"{self._history_bytes}")
            if size > self._history_bytes:
                os.truncate(current, self._history_bytes)
            for stale in self.directory.glob("history*.log"):
                if stale != current:
                    stale.unlink()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot trim history logs under {self.directory}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def make_entry(
        self,
        kind: str,
        operation: int,
        version: int,
        partition_set: Iterable[int],
        writes: Optional[Mapping[str, Any]] = None,
        data: Optional[Mapping[str, Any]] = None,
        coordinator: Optional[int] = None,
    ) -> dict[str, Any]:
        """Build (but do not log) one WAL entry for a COMMIT.

        *writes* is the key-value delta of a write commit; *data* is a
        full map install (RECOVER copies the file from the anchor).
        The entry carries no sequence number: every receiver numbers
        applied entries locally, so one broadcast entry is valid at
        replicas whose logs have different lengths.
        """
        return {
            "kind": str(kind),
            "operation": int(operation),
            "version": int(version),
            "partition_set": sorted(int(s) for s in partition_set),
            "writes": None if writes is None else dict(writes),
            "data": None if data is None else dict(data),
            "coordinator": coordinator,
        }

    def commit(self, entry: Mapping[str, Any]) -> None:
        """Check *entry*, log it durably, then apply it; compacts when due.

        Raises:
            ProtocolError: if *entry* is malformed or would break
                ``(o, v, P)`` monotonicity.  Nothing is logged or
                applied then, so the replica still reopens.
        """
        try:
            record = _history_entry(entry, self.applied_index + 1,
                                    "a COMMIT")
            # Checked on a copy, so a refused entry is never logged.
            ReplicaState.from_dict(self.state.to_dict()).commit(
                record["operation"], record["version"],
                frozenset(record["partition_set"]))
        except WALCorruptionError as exc:
            raise ProtocolError(str(exc)) from exc
        self.wal.append(entry)
        self._apply(entry, record)
        if self.applied_index % self.compact_every == 0:
            self.compact()

    def accepts(self, operation: int) -> bool:
        """Whether a commit numbered *operation* advances this replica
        (strictly newer than anything applied)."""
        return int(operation) > self.state.operation

    # ------------------------------------------------------------------
    def _apply(self, entry: Mapping[str, Any],
               record: Optional[dict[str, Any]] = None) -> None:
        if record is None:
            record = _history_entry(entry, self.applied_index + 1,
                                    self.wal.path)
        self.state.commit(record["operation"], record["version"],
                          frozenset(record["partition_set"]))
        if entry.get("data") is not None:
            self.data = dict(entry["data"])
        if entry.get("writes"):
            self.data.update(entry["writes"])
        self.applied_index = record["index"]
        self.latest = record
        self._tail.append(record)

    def install_remote(
        self,
        state_doc: Mapping[str, Any],
        data: Mapping[str, Any],
        history: Iterable[Mapping[str, Any]],
    ) -> None:
        """Adopt a peer's full durable state (orphan rollback).

        When a crashed coordinator leaves a commit at a minority and a
        rival commit with the same operation number is later proven
        majority-committed, the minority holder's tail never happened
        as far as the protocol is concerned: this replaces state, data
        and history wholesale and persists the result as a snapshot, so
        the discarded tail also disappears from the WAL.  The adopted
        history goes to a new generation's log, fsynced before the
        snapshot that names it, so a crash leaves the old or the new
        history, never a mix.

        Raises:
            ConfigurationError: on a malformed peer state document.
        """
        try:
            adopted = ReplicaState(
                self.site_id,
                operation=int(state_doc["operation"]),
                version=int(state_doc["version"]),
                partition_set=frozenset(
                    int(s) for s in state_doc["partition_set"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed peer state document: {exc}"
            ) from exc
        adopted_history = [dict(entry) for entry in history]
        self.state = adopted
        self.data = dict(data)
        self.applied_index = len(adopted_history)
        self.latest = adopted_history[-1] if adopted_history else None
        retired = self.history_path
        self._history_generation += 1
        self._history_bytes = append_records(
            self.history_path, adopted_history, truncate=True)
        self._tail = []
        self._checkpoint()
        retired.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Append the history applied since the last compaction (one
        write, one fsync), save the state-only snapshot atomically,
        then reset the WAL — in that order (see the module docstring
        for why each crash point recovers)."""
        if self._tail:
            self._history_bytes = append_records(self.history_path,
                                                 self._tail)
            self._tail = []
        self._checkpoint()

    def _checkpoint(self) -> None:
        """Save the snapshot over the logged history, then reset the
        WAL it makes redundant."""
        self.snapshots.save({
            "format": _SNAPSHOT_FORMAT,
            "version": _SNAPSHOT_VERSION,
            "state": self.state.to_dict(),
            "data": self.data,
            "applied_index": self.applied_index,
            "history_generation": self._history_generation,
            "history_bytes": self._history_bytes,
            "latest": self.latest,
        })
        self.wal.reset()

    def close(self) -> None:
        """Close the WAL handle."""
        self.wal.close()

    # ------------------------------------------------------------------
    def canonical_document(self) -> bytes:
        """The replica's externally visible state as canonical bytes.

        Two replicas (or one replica before and after a crash) are
        *the same* exactly when these bytes match.
        """
        document = {
            "site": self.site_id,
            "state": self.state.to_dict(),
            "data": {key: self.data[key] for key in sorted(self.data)},
            "applied_index": self.applied_index,
        }
        return json.dumps(document, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def digest(self) -> str:
        """SHA-256 of :meth:`canonical_document` (hex)."""
        return hashlib.sha256(self.canonical_document()).hexdigest()

    def verify_recovery(self) -> dict[str, Any]:
        """Cross-check this store against an independent cold replay.

        Re-opens the same directory with a fresh reader and compares
        canonical documents byte for byte.  Called by a restarting
        replica right after recovery; the bench requires the resulting
        marker to say ``verified``.

        Raises:
            ProtocolError: when the two replays disagree — the WAL
                apply path is not deterministic, which must never pass
                silently.
        """
        shadow = DurableReplica.open(
            self.directory, self.site_id, self.copy_sites,
            fsync="never", compact_every=self.compact_every,
        )
        try:
            mine = self.canonical_document()
            theirs = shadow.canonical_document()
        finally:
            shadow.close()
        if mine != theirs:
            raise ProtocolError(
                f"recovery replay diverged at site {self.site_id}: "
                f"{mine!r} != {theirs!r}"
            )
        return {
            "site": self.site_id,
            "verified": True,
            "digest": self.digest(),
            "applied_index": self.applied_index,
            "operation": self.state.operation,
            "version": self.state.version,
            "torn_tail_bytes": self.torn_tail_bytes,
        }
