"""Persisting and tailing live telemetry streams.

A live session is a directory under the registry root::

    .repro/runs/<live-id>/
        live.json     # descriptor: command, parameters, status
        live.jsonl    # one telemetry event per line, appended + flushed

Run ids in the registry are content hashes of *results*, which do not
exist while a run is still running — so a live session is keyed by an
**input-derived** id instead: the truncated SHA-256 of the command and
its canonical parameters (:func:`live_session_id`).  Re-running the
identical command reuses (and truncates) the same session directory,
mirroring the registry's idempotent recording.  Because a live
directory holds no ``record.json``, the index-driven registry listing
never confuses it with a recorded run; once the run records, the
descriptor is stamped with the resulting ``run_id`` so watchers can
link the two.

The stream is :mod:`repro.durable` JSON lines, tailed by byte cursor
exactly like the registry index.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import pathlib
from typing import Any, BinaryIO, Mapping, Optional, Union

from repro.durable import (
    CorruptLineError,
    JsonLinesWriter,
    atomic_write,
    read_json_lines,
)
from repro.errors import ConfigurationError
from repro.obs.live.bus import Subscription, TelemetryBus, TelemetryEvent

__all__ = [
    "LIVE_DESCRIPTOR_NAME",
    "LIVE_STREAM_NAME",
    "LiveSession",
    "LiveStreamSink",
    "LiveTail",
    "live_session_id",
    "read_live_events",
]

#: Descriptor file marking a directory as a live session.
LIVE_DESCRIPTOR_NAME = "live.json"

#: The appended event stream.
LIVE_STREAM_NAME = "live.jsonl"

_FORMAT = "repro-live"
_VERSION = 1

#: Hex digits kept as the live-session id (matches registry run ids).
_ID_LENGTH = 16


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def live_session_id(command: str,
                    parameters: Optional[Mapping[str, Any]] = None) -> str:
    """The input-derived id of a live session.

    Truncated SHA-256 over the command and its canonical parameters —
    never wall-clock or pid, so a watcher can compute the id of a run
    another process is about to start.
    """
    canonical = json.dumps(
        dict(parameters or {}), sort_keys=True, separators=(",", ":"),
    )
    digest = hashlib.sha256(
        b"live\x00" + command.encode() + b"\x00" + canonical.encode()
    )
    return digest.hexdigest()[:_ID_LENGTH]


class LiveStreamSink:
    """A bus subscriber appending events to a ``live.jsonl``.

    Every event is written as one JSON line and flushed immediately so
    a concurrent tailer observes it; the OS may still tear the final
    line, which the byte-cursor readers tolerate.
    """

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        try:
            self._writer = JsonLinesWriter(self.path)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open live stream {self.path}: {exc}"
            ) from exc
        self.events_written = 0

    def __call__(self, event: TelemetryEvent) -> None:
        """Append one event (the bus-subscriber callback)."""
        if self._writer.closed:
            return
        self._writer.append(event.to_dict())
        self.events_written += 1

    def close(self) -> None:
        """Flush and close the stream (idempotent)."""
        self._writer.close()

    @property
    def closed(self) -> bool:
        return self._writer.closed


class LiveSession:
    """One live run directory: descriptor plus event stream.

    Use :meth:`start` in the process running the study and
    :meth:`load` in a watcher.
    """

    def __init__(self, path: pathlib.Path, descriptor: dict[str, Any]):
        self.path = pathlib.Path(path)
        self.descriptor = descriptor
        self._sink: Optional[LiveStreamSink] = None

    # -- identity ------------------------------------------------------
    @property
    def live_id(self) -> str:
        return str(self.descriptor.get("live_id", self.path.name))

    @property
    def stream_path(self) -> pathlib.Path:
        return self.path / LIVE_STREAM_NAME

    @property
    def descriptor_path(self) -> pathlib.Path:
        return self.path / LIVE_DESCRIPTOR_NAME

    @property
    def status(self) -> str:
        """``running`` while the producer holds the session, then the
        terminal status passed to :meth:`finish`."""
        return str(self.descriptor.get("status", "unknown"))

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def start(
        cls,
        root: Union[str, pathlib.Path],
        command: str,
        parameters: Optional[Mapping[str, Any]] = None,
        kind: str = "study",
    ) -> "LiveSession":
        """Create (or reuse) the session directory and mark it running.

        The stream file is truncated: re-running the identical command
        replaces its previous live stream, like the registry's
        idempotent re-record.
        """
        live_id = live_session_id(command, parameters)
        path = pathlib.Path(root) / live_id
        descriptor = {
            "format": _FORMAT,
            "version": _VERSION,
            "live_id": live_id,
            "kind": kind,
            "command": command,
            "parameters": dict(parameters or {}),
            "status": "running",
            "started_at": _utcnow(),
        }
        session = cls(path, descriptor)
        try:
            path.mkdir(parents=True, exist_ok=True)
            session.stream_path.write_text("")
            session._write_descriptor()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot start live session under {root}: {exc}"
            ) from exc
        return session

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> "LiveSession":
        """Load an existing session directory.

        Raises:
            ConfigurationError: no readable descriptor at *path*.
        """
        path = pathlib.Path(path)
        descriptor_path = path / LIVE_DESCRIPTOR_NAME
        try:
            descriptor = json.loads(descriptor_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"no live session at {path}: {exc}"
            ) from exc
        if not isinstance(descriptor, dict) \
                or descriptor.get("format") != _FORMAT:
            raise ConfigurationError(
                f"{descriptor_path} is not a live-session descriptor"
            )
        return cls(path, descriptor)

    def refresh(self) -> None:
        """Re-read the descriptor (a watcher polling for ``finished``)."""
        try:
            descriptor = json.loads(self.descriptor_path.read_text())
        except (OSError, json.JSONDecodeError):
            return  # keep the last good descriptor
        if isinstance(descriptor, dict):
            self.descriptor = descriptor

    def attach(self, bus: TelemetryBus) -> Subscription:
        """Subscribe a stream sink to *bus*; events persist from now on."""
        self._sink = LiveStreamSink(self.stream_path)
        return bus.subscribe(self._sink, name=f"live:{self.live_id}")

    def finish(self, status: str = "finished",
               run_id: Optional[str] = None) -> None:
        """Close the stream and stamp the terminal *status* (plus the
        recorded *run_id* when the run was ``--record``-ed)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        self.descriptor["status"] = status
        self.descriptor["finished_at"] = _utcnow()
        if run_id is not None:
            self.descriptor["run_id"] = run_id
        try:
            self._write_descriptor()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot finish live session {self.path}: {exc}"
            ) from exc

    def _write_descriptor(self) -> None:
        atomic_write(self.descriptor_path, (json.dumps(
            self.descriptor, indent=2, sort_keys=True) + "\n").encode())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveSession {self.live_id} {self.status}>"


def read_live_events(
    path: Union[str, pathlib.Path], offset: int = 0
) -> tuple[list[dict[str, Any]], int]:
    """Parse complete event lines starting at byte *offset*.

    Returns ``(events, new_offset)`` where *new_offset* points just past
    the last **complete** (newline-terminated) line consumed.  A torn
    final line — a concurrent writer caught mid-append — is left
    unconsumed for the next poll.  A missing file yields ``([],
    offset)``: live streams appear asynchronously, so absence is not an
    error.

    Raises:
        ConfigurationError: *offset* is negative, or a complete line is
            not JSON (real corruption, never a torn write).
    """
    if offset < 0:
        raise ConfigurationError(
            f"stream offset must be >= 0, got {offset}"
        )
    path = pathlib.Path(path)
    try:
        with path.open("rb") as handle:
            return _read_events(handle, offset, path)
    except OSError:
        return [], offset


def _read_events(
    handle: BinaryIO, offset: int, path: pathlib.Path
) -> tuple[list[dict[str, Any]], int]:
    try:
        return read_json_lines(handle, offset)
    except CorruptLineError as exc:
        raise ConfigurationError(
            f"corrupt live-stream line at byte {exc.offset} of {path}: "
            f"{exc}"
        ) from exc


class LiveTail:
    """A stateful follower of one ``live.jsonl``.

    Holds a single open read handle (opened lazily, since the stream
    may not exist yet) and a byte cursor; each :meth:`poll` returns the
    complete lines appended since the last one.  ``close()`` releases
    the handle — the SSE endpoint guarantees this on client disconnect.
    """

    def __init__(self, path: Union[str, pathlib.Path], offset: int = 0):
        if offset < 0:
            raise ConfigurationError(
                f"stream offset must be >= 0, got {offset}"
            )
        self.path = pathlib.Path(path)
        self.position = offset
        self._handle: Optional[Any] = None

    def poll(self) -> list[dict[str, Any]]:
        """Events appended since the last poll (empty when none)."""
        if self._handle is None:
            try:
                self._handle = self.path.open("rb")
            except OSError:
                return []
        events, self.position = _read_events(
            self._handle, self.position, self.path)
        return events

    def close(self) -> None:
        """Release the read handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def closed(self) -> bool:
        return self._handle is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveTail {self.path} @{self.position}>"
