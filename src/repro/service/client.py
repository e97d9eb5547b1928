"""The blocking service client: retries, timeouts, replica failover.

A :class:`ServiceClient` is what the load generator (and a human at
the CLI) uses: plain blocking sockets kept open between requests, one
frame out and one frame back per request, with the shared
:class:`~repro.util.backoff.BackoffPolicy` pacing retries and a
rotation over every replica address for failover.

Outcome taxonomy — the availability accounting the bench records:

* ``ok`` — a replica granted and committed the operation;
* ``denied`` — a quorum round ran and refused (the paper's
  *unavailable* state: fewer than half the previous partition set
  reachable).  Denials are authoritative, so they are **not** retried;
* ``unavailable`` — no replica produced a decision before the retry
  budget ran out (connection failures, timeouts, minority commits,
  lease contention).
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ServiceError
from repro.obs.dtrace.context import CTX_FIELD, ctx_from_frame
from repro.obs.dtrace.spans import SpanRecorder
from repro.service.frames import FrameError, recv_frame, send_frame
from repro.util.backoff import BackoffPolicy

__all__ = [
    "DEFAULT_CLIENT_BACKOFF",
    "OpResult",
    "ServiceClient",
]

#: Retry pacing for client operations: quick first retry, full jitter,
#: capped well under a chaos partition window so failover actually
#: lands on another replica instead of sleeping through the run.
DEFAULT_CLIENT_BACKOFF = BackoffPolicy(
    base=0.05, factor=2.0, max_delay=0.5, jitter=1.0, max_attempts=5,
)


class OpResult:
    """The outcome of one client operation.

    Attributes:
        ok: Whether the operation was granted and committed.
        outcome: ``"ok"``, ``"denied"`` or ``"unavailable"``.
        op: ``"get"`` or ``"put"``.
        key: The key operated on.
        value: The value read (``None`` for writes and misses).
        version: The data version the operation observed or created.
        site: The replica that coordinated the decisive round.
        reason: Denial/unavailability explanation.
        latency: Wall-clock seconds from first attempt to outcome.
        attempts: Requests actually sent (1 = no retry needed).
        trace: Trace id of the operation's root span, when the client
            records spans (``None`` otherwise) — ties a latency sample
            to its merged trace.
    """

    __slots__ = ("ok", "outcome", "op", "key", "value", "version",
                 "site", "reason", "latency", "attempts", "trace")

    def __init__(self, ok: bool, outcome: str, op: str, key: str,
                 value: Any = None, version: Optional[int] = None,
                 site: Optional[int] = None, reason: str = "",
                 latency: float = 0.0, attempts: int = 0,
                 trace: Optional[str] = None):
        self.ok = ok
        self.outcome = outcome
        self.op = op
        self.key = key
        self.value = value
        self.version = version
        self.site = site
        self.reason = reason
        self.latency = latency
        self.attempts = attempts
        self.trace = trace

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable record (one latency-sample line)."""
        record = {
            "ok": self.ok,
            "outcome": self.outcome,
            "op": self.op,
            "key": self.key,
            "version": self.version,
            "site": self.site,
            "latency": self.latency,
            "attempts": self.attempts,
        }
        if self.trace is not None:
            record["trace"] = self.trace
        return record


class _Retryable(ServiceError):
    """Internal: this attempt failed but another replica may answer."""


class ServiceClient:
    """A blocking client over one or more replica addresses.

    Each request goes to the next address in the rotation (round-robin
    from a random seeded start), so a dead or partitioned replica only
    costs one timeout before failover.

    Connection rules: one socket is kept per address and carries one
    request at a time — it is taken out of the table while a request
    is in flight and put back only after a complete reply.  A time-out
    or a torn frame closes it (a late reply must never be read as the
    answer to the next request) and is reported like a failed fresh
    connection.  Only an EOF or reset on a *reused* socket — the
    replica restarted since it was last used — is redialled once
    before being reported.  :meth:`close` (or leaving the ``with``
    block) closes every kept socket.

    A client is single-threaded, like the sockets it keeps: give each
    thread its own.

    With a *recorder*, every operation opens a root span and every
    attempt a child span whose context rides the request frame's
    ``ctx`` field — the replica-side spans it causes become its
    children in the merged trace.  Without one (the default) no trace
    code runs at all.
    """

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        timeout: float = 2.0,
        backoff: Optional[BackoffPolicy] = None,
        rng: Optional[random.Random] = None,
        recorder: Optional[SpanRecorder] = None,
    ):
        if not addresses:
            raise ConfigurationError("client needs at least one address")
        self.addresses = [(str(h), int(p)) for h, p in addresses]
        self.timeout = timeout
        self.backoff = backoff or DEFAULT_CLIENT_BACKOFF
        self.recorder = recorder
        self._rng = rng or random.Random()
        self._cursor = self._rng.randrange(len(self.addresses))
        self._sockets: dict[Tuple[str, int], socket.socket] = {}

    def close(self) -> None:
        """Close every kept connection (the client stays usable)."""
        for sock in self._sockets.values():
            sock.close()
        self._sockets.clear()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def get(self, key: str) -> OpResult:
        """Quorum read of *key*."""
        return self._operate("get", key, None)

    def put(self, key: str, value: Any) -> OpResult:
        """Quorum write of *key* = *value*."""
        return self._operate("put", key, value)

    def ping(self, address: Optional[Tuple[str, int]] = None) -> bool:
        """Whether a replica answers at all (readiness probe)."""
        target = address or self.addresses[
            self._cursor % len(self.addresses)]
        try:
            reply = self._request(target, {"kind": "ping"})
        except (OSError, ServiceError):
            return False
        return bool(reply) and reply.get("kind") == "pong"

    def info(self, address: Tuple[str, int]) -> Optional[dict[str, Any]]:
        """One replica's ``info`` document, or ``None`` if unreachable."""
        try:
            reply = self._request(address, {"kind": "info"})
        except (OSError, ServiceError):
            return None
        if reply is None or reply.get("kind") != "info":
            return None
        return reply

    # ------------------------------------------------------------------
    def _operate(self, op: str, key: str, value: Any) -> OpResult:
        start = time.monotonic()
        attempts = 0
        message: dict[str, Any] = {"kind": op, "key": key}
        if op == "put":
            message["value"] = value
        op_span = None
        if self.recorder is not None:
            op_span = self.recorder.span(f"client.{op}", op=op, key=key)

        def attempt() -> OpResult:
            nonlocal attempts
            attempts += 1
            address = self._next_address()
            request = dict(message)
            span = None
            if op_span is not None and self.recorder is not None:
                span = self.recorder.span(
                    "client.attempt", parent=op_span,
                    attempt=attempts,
                    address=f"{address[0]}:{address[1]}")
                request[CTX_FIELD] = span.sent()
            try:
                reply = self._request(address, request)
            except (OSError, FrameError) as exc:
                if span is not None:
                    span.finish("unreachable", error=str(exc))
                raise _Retryable(f"{address[0]}:{address[1]}: {exc}") from exc
            except _Retryable as exc:
                if span is not None:
                    span.finish("timeout", error=str(exc))
                raise
            if span is not None and reply is not None:
                remote = ctx_from_frame(reply)
                if remote is not None:
                    span.received(remote[2], site=reply.get("site"))
            if reply is None or reply.get("kind") not in ("result", "error"):
                if span is not None:
                    span.finish("error", error="connection closed")
                raise _Retryable(
                    f"{address[0]}:{address[1]}: connection closed "
                    "before a result"
                )
            if reply.get("kind") == "error":
                if span is not None:
                    span.finish("error",
                                error=str(reply.get("reason", "")))
                raise _Retryable(str(reply.get("reason", "replica error")))
            if reply.get("ok"):
                if span is not None:
                    span.finish("ok")
                return OpResult(
                    ok=True, outcome="ok", op=op, key=key,
                    value=reply.get("value"),
                    version=reply.get("version"),
                    site=reply.get("site"),
                )
            outcome = str(reply.get("outcome", "unavailable"))
            if outcome == "denied":
                # A quorum ran and said no; retrying cannot change it
                # until the network does.
                if span is not None:
                    span.finish("denied",
                                reason=str(reply.get("reason", "")))
                return OpResult(
                    ok=False, outcome="denied", op=op, key=key,
                    site=reply.get("site"),
                    reason=str(reply.get("reason", "")),
                )
            if span is not None:
                span.finish(outcome,
                            reason=str(reply.get("reason", "")))
            raise _Retryable(str(reply.get("reason", outcome)))

        try:
            result = self.backoff.run(
                attempt, retry_on=(_Retryable,), rng=self._rng)
        except _Retryable as exc:
            result = OpResult(ok=False, outcome="unavailable", op=op,
                              key=key, reason=str(exc))
        result.latency = time.monotonic() - start
        result.attempts = attempts
        if op_span is not None:
            result.trace = op_span.trace_id
            finish_attrs: dict[str, Any] = {
                "attempts": attempts,
                "latency": round(result.latency, 6),
            }
            if result.site is not None:
                finish_attrs["site"] = result.site
            if result.reason:
                finish_attrs["reason"] = result.reason
            op_span.finish(result.outcome, **finish_attrs)
        return result

    def _next_address(self) -> Tuple[str, int]:
        address = self.addresses[self._cursor % len(self.addresses)]
        self._cursor += 1
        return address

    def _request(self, address: Tuple[str, int],
                 message: dict[str, Any]) -> Optional[dict[str, Any]]:
        sock = self._sockets.pop(address, None)
        reused = sock is not None
        while True:
            if sock is None:
                sock = socket.create_connection(address,
                                                timeout=self.timeout)
            reply = None
            try:
                send_frame(sock, message)
                reply = recv_frame(sock)
            except socket.timeout as exc:
                raise _Retryable(
                    f"timed out waiting for {address[0]}:{address[1]}"
                ) from exc
            except ConnectionError:
                if not reused:
                    raise
            finally:
                if reply is None:
                    sock.close()
            if reply is not None:
                self._sockets[address] = sock
                return reply
            if not reused:
                return None
            # EOF or reset on a socket that carried a reply before: the
            # replica restarted since.  Dial it again, once.
            sock, reused = None, False
