"""The asyncio replica server: durable state + live quorum rounds.

One :class:`ReplicaServer` is one paper "site": it owns a
:class:`~repro.service.store.DurableReplica` (the ``(o, v, P)`` triple,
the key-value map and the WAL) and serves length-prefixed JSON frames
on TCP.  Any replica can coordinate a client operation:

1. collect ``(o, v, P)`` states from every peer; a short lease rides
   on the state request, serialising concurrent coordinators by the
   wait-die rules of :mod:`repro.service.lease` (a refused coordinator
   releases, queues at the refusing site, and reruns — no sleep);
2. evaluate the paper's quorum test over the responders — the real
   :mod:`repro.core` protocol classes via
   :func:`repro.service.quorum.evaluate_round`;
3. if granted, broadcast ``COMMIT(S, o_m+1, v', S')``; every recipient
   appends the entry to its WAL *before* acking, so an acked commit
   survives SIGKILL.

A restarting replica recovers from snapshot + WAL, verifies the replay
against an independent cold read (writing a ``recovery.json`` marker
the bench asserts on), and then runs the paper's RECOVER loop until a
quorum reinserts it.  The same background loop performs commit repair:
if a crashed coordinator left a commit at a minority, the max-``o``
holder re-broadcasts it once a majority of its partition set is
reachable — restoring the majority-preserving commit property the
protocols' liveness rests on (the chaos harness budgets partial
commits the same way).
"""

from __future__ import annotations

import asyncio
import json
import random
import time as _time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple, Union

from repro.core.registry import available_policies
from repro.core.rounds import repair_targets, rollback_source
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ServiceError,
    WALCorruptionError,
)
from repro.obs.dtrace.context import CTX_FIELD, ctx_from_frame
from repro.obs.dtrace.spans import SPAN_LOG_NAME, JsonlSpanSink, Span, \
    SpanRecorder
from repro.obs.live.export import render_prometheus
from repro.obs.live.resources import ResourceSampler
from repro.obs.metrics import MetricsRegistry
from repro.service.frames import FrameError, encode_frame, read_frame
from repro.service.lease import GRANT, WAIT, LeaseTable, as_ticket
from repro.service.quorum import evaluate_round, plan_commit
from repro.service.store import DurableReplica

__all__ = ["ReplicaConfig", "ReplicaServer", "serve_replica"]

#: File a restarting replica writes its recovery verification into.
RECOVERY_MARKER = "recovery.json"

#: Quorum rounds one client operation may take before it is
#: answered ``contended``.
_MAX_ROUNDS = 6


def _response_status(response: Mapping[str, Any]) -> str:
    """Span status for a reply frame: the outcome the sender sees."""
    kind = response.get("kind")
    if kind == "result":
        return "ok" if response.get("ok") \
            else str(response.get("outcome", "error"))
    if kind in ("busy", "stale", "error"):
        return str(kind)
    return "ok"


@dataclass(frozen=True)
class ReplicaConfig:
    """Static configuration of one replica process.

    Attributes:
        site_id: This replica's paper site number (1-based).
        host / port: Listen address (port 0 lets the OS pick).
        data_dir: Directory for WAL, snapshot and recovery marker.
        peers: ``{site: (host, port)}`` for every *other* replica —
            pointed at the chaos proxy when one is in the wire.
        policy: Protocol abbreviation (``"ODV"``, ``"OTDV"``, ...).
        segments: Optional ``{site: segment}`` co-location map for the
            topological protocols' vote claiming.
        fsync: WAL durability policy (``"always"`` / ``"never"``).
        compact_every: Snapshot-compaction period, in commits.
        lease_s: Coordinator lease duration; bounds how long a crashed
            coordinator can block others.
        peer_timeout: Per-peer round-trip budget; a peer that misses it
            is treated as unreachable this round.  A ``state?`` request
            waits in a lease queue for at most an eighth of it.
        recover_interval: Cadence of the RECOVER / anti-entropy loop.
        trace: Record distributed-tracing spans to ``spans.jsonl``
            next to the WAL (zero-cost when off, the default).
    """

    site_id: int
    host: str
    port: int
    data_dir: str
    peers: Mapping[int, Tuple[str, int]] = field(default_factory=dict)
    policy: str = "ODV"
    segments: Optional[Mapping[int, int]] = None
    fsync: str = "always"
    compact_every: int = 256
    lease_s: float = 2.0
    peer_timeout: float = 1.0
    recover_interval: float = 1.0
    trace: bool = False

    def __post_init__(self) -> None:
        if self.policy not in available_policies():
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; "
                f"choose from {available_policies()}"
            )
        if self.site_id in self.peers:
            raise ConfigurationError(
                f"peers must not include the replica itself "
                f"(site {self.site_id})"
            )

    @property
    def copy_sites(self) -> frozenset[int]:
        """All sites holding a copy: this one plus every peer."""
        return frozenset(self.peers) | {self.site_id}


class ReplicaServer:
    """One live replica: TCP frame server + coordinator + RECOVER loop.

    Connection rules: an accepted connection serves frames until its
    peer closes it, and this replica keeps one link per peer site,
    carrying one request at a time — taken out of the table while a
    request is in flight, put back only after a complete reply (rounds
    are serialised by the coordinator lock, so no two requests want
    one link).  A time-out or torn frame closes the link and counts
    the peer as silent this round; only an EOF or reset on a *reused*
    link — the peer restarted since it was last used — is redialled
    once first.  :meth:`stop` closes every accepted connection and
    every kept link, so a stopped replica is silent.
    """

    def __init__(self, config: ReplicaConfig):
        self.config = config
        self.site_id = config.site_id
        self.store: Optional[DurableReplica] = None
        self.recovery_info: Optional[dict[str, Any]] = None
        self.recorder: Optional[SpanRecorder] = None
        self.counters: dict[str, int] = {}
        #: Per-process instrument registry, served over ``metrics?``.
        self.metrics = MetricsRegistry()
        self._sampler = ResourceSampler(min_interval=0.5)
        self._server: Optional[asyncio.base_events.Server] = None
        self._recover_task: Optional[asyncio.Task] = None
        self._accepted: set[asyncio.StreamWriter] = set()
        self._links: dict[int, tuple[asyncio.StreamReader,
                                     asyncio.StreamWriter]] = {}
        self._coord_lock = asyncio.Lock()
        self._leases = LeaseTable(config.lease_s)
        #: One future per queued ``state?`` request, by requesting site.
        self._waiting: dict[int, asyncio.Future[bool]] = {}
        self._rng = random.Random(f"replica:{config.site_id}")
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Recover durable state, verify the replay, start serving."""
        probe = DurableReplica(
            self.config.data_dir, self.site_id, self.config.copy_sites)
        had_state = (probe.wal.path.exists()
                     or probe.snapshots.path.exists())
        self.store = DurableReplica.open(
            self.config.data_dir, self.site_id, self.config.copy_sites,
            fsync=self.config.fsync,
            compact_every=self.config.compact_every,
            metrics=self.metrics,
        )
        self._sampler.tick(metrics=self.metrics, force=True)
        self.recovery_info = self.store.verify_recovery()
        self.recovery_info["had_state"] = had_state
        self.recovery_info["reinserted"] = False
        self._write_recovery_marker()
        if self.config.trace:
            # Append-only, next to the WAL: a restart extends the log.
            self.recorder = SpanRecorder(
                JsonlSpanSink(self.store.directory / SPAN_LOG_NAME),
                proc=f"site-{self.site_id}",
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
        )
        self._recover_task = asyncio.create_task(self._recover_loop())

    @property
    def port(self) -> int:
        """The bound listen port (useful after binding port 0)."""
        if self._server is None or not self._server.sockets:
            raise ConfigurationError("replica server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` is called."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Stop serving, cancel background work, close the WAL."""
        if self._recover_task is not None:
            self._recover_task.cancel()
            try:
                await self._recover_task
            except (asyncio.CancelledError, Exception):
                pass
            self._recover_task = None
        for _, writer in self._links.values():
            writer.close()
        self._links.clear()
        if self._server is not None:
            self._server.close()
            # Before wait_closed(), which on Python >= 3.12 waits for
            # the accepted connections.
            for writer in list(self._accepted):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        if self.recorder is not None:
            self.recorder.close()
            self.recorder = None
        if self.store is not None:
            self.store.close()
        self._stopped.set()

    def _write_recovery_marker(self) -> None:
        marker = self.store.directory / RECOVERY_MARKER  # type: ignore[union-attr]
        marker.write_text(json.dumps(self.recovery_info, sort_keys=True,
                                     indent=2) + "\n")

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    # ------------------------------------------------------------------
    # frame server
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
    ) -> None:
        self._accepted.add(writer)
        self._count("connections.accepted")
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except FrameError:
                    break  # torn connection: drop it, the peer retries
                if message is None:
                    break
                response = await self._dispatch(message)
                payload = encode_frame(response)
                self.metrics.counter(
                    "replica.frame.bytes", direction="out"
                ).inc(len(payload))
                writer.write(payload)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._accepted.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, message: Mapping[str, Any]) -> dict[str, Any]:
        span = self._handler_span(message)
        response = await self._dispatch_message(message, span)
        if span is not None:
            # Echo context so the sender can fold this clock back in.
            response[CTX_FIELD] = span.sent()
            span.finish(_response_status(response))
        return response

    def _handler_span(self,
                      message: Mapping[str, Any]) -> Optional[Span]:
        """A span for one incoming frame, or ``None`` when untraced.

        Client operations always get a span (a traced replica serving
        an old, untraced client still records its side); peer frames
        only when they carry context — an orphan peer span with no
        parent would never join a trace tree.
        """
        if self.recorder is None:
            return None
        kind = message.get("kind")
        ctx = ctx_from_frame(message)
        if kind in ("get", "put") or (
                ctx is not None and kind in
                ("state?", "commit", "release", "fetch")):
            span = self.recorder.span(f"replica.{kind}", ctx=ctx,
                                      site=self.site_id)
            key = message.get("key")
            if key is not None:
                span.annotate(key=str(key))
            return span
        return None

    async def _dispatch_message(
        self, message: Mapping[str, Any], span: Optional[Span] = None,
    ) -> dict[str, Any]:
        kind = message.get("kind")
        self.metrics.counter("replica.frames", kind=str(kind)).inc()
        try:
            if kind == "ping":
                return {"kind": "pong", "site": self.site_id}
            if kind == "state?":
                return await self._on_state(message)
            if kind == "commit":
                return self._on_commit(message)
            if kind == "release":
                return self._on_release(message)
            if kind == "fetch":
                return self._on_fetch(message)
            if kind == "info":
                return self._on_info()
            if kind == "metrics?":
                return self._on_metrics(message)
            if kind in ("get", "put"):
                return await self._on_client_op(message, span)
            return {"kind": "error", "reason": f"unknown kind {kind!r}"}
        except (ProtocolError, WALCorruptionError, ServiceError,
                ConfigurationError) as exc:
            self._count("errors")
            return {"kind": "error", "reason": str(exc)}

    # -- peer handlers --------------------------------------------------
    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    async def _take_lease(self, message: Mapping[str, Any]) -> bool:
        """Whether the ``state?`` sender gets the lease: at once, or
        after waiting in line for at most an eighth of the peer time-out
        (:mod:`repro.service.lease` says why so short)."""
        holder = int(message.get("from", 0))
        stale = self._waiting.pop(holder, None)
        if stale is not None:  # superseded by this request
            stale.set_result(False)
        decision = self._leases.request(
            holder, as_ticket(message.get("ticket")), self._now(),
            empty_handed=bool(message.get("queue")))
        if decision != WAIT:
            return decision == GRANT
        self.metrics.counter("replica.lease.queued").inc()
        waiter = self._waiting[holder] = \
            asyncio.get_running_loop().create_future()
        try:
            await asyncio.wait((waiter,),
                               timeout=self.config.peer_timeout / 8)
        finally:
            if self._waiting.get(holder) is waiter:
                del self._waiting[holder]
            if not waiter.done():
                self._leases.withdraw(holder)
        return waiter.done() and waiter.result()

    def _release_lease(self, holder: int) -> None:
        """Free *holder*'s lease here and answer the waiters it moves."""
        released = self._leases.release(holder, self._now())
        for site in (*released.refused, released.granted):
            waiter = self._waiting.pop(site, None)  # type: ignore[arg-type]
            if waiter is not None:
                waiter.set_result(site == released.granted)

    async def _on_state(self, message: Mapping[str, Any]) -> dict[str, Any]:
        if not await self._take_lease(message):
            self._count("busy")
            self.metrics.counter("replica.lease.denied").inc()
            return {"kind": "busy", "site": self.site_id,
                    "holder": self._leases.holder}
        assert self.store is not None
        reply = {"kind": "state", **self.store.state.to_dict()}
        if self.store.latest is not None:  # what the orphan rules compare
            reply["last"] = self.store.latest
        key = message.get("key")
        if key is not None:
            reply["value"] = self.store.data.get(str(key))
        return reply

    def _on_commit(self, message: Mapping[str, Any]) -> dict[str, Any]:
        holder = int(message.get("from", 0))
        entry = message.get("entry")
        if not isinstance(entry, dict):
            return {"kind": "error", "reason": "commit without entry"}
        assert self.store is not None
        if not self.store.accepts(int(entry.get("operation", 0))):
            self._release_lease(holder)
            return {"kind": "stale", "site": self.site_id,
                    "operation": self.store.state.operation}
        self.store.commit(entry)
        self._count("commits")
        self._release_lease(holder)
        return {"kind": "ok", "site": self.site_id,
                "operation": self.store.state.operation}

    def _on_release(self, message: Mapping[str, Any]) -> dict[str, Any]:
        self._release_lease(int(message.get("from", 0)))
        return {"kind": "ok", "site": self.site_id}

    def _on_fetch(self, message: Mapping[str, Any]) -> dict[str, Any]:
        assert self.store is not None
        reply = {
            "kind": "data",
            "site": self.site_id,
            "state": self.store.state.to_dict(),
            "data": dict(self.store.data),
        }
        if message.get("history"):
            # Only the orphan rollback adopts a history; it grows with
            # the cluster's age, so nobody else is sent it.
            reply["history"] = self.store.history
        return reply

    def _on_info(self) -> dict[str, Any]:
        assert self.store is not None
        return {
            "kind": "info",
            "site": self.site_id,
            "policy": self.config.policy,
            **self.store.state.to_dict(),
            "applied_index": self.store.applied_index,
            "digest": self.store.digest(),
            "counters": dict(self.counters),
            "recovery": self.recovery_info,
        }

    def _on_metrics(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """The ``metrics?`` frame: this process's registry, for scrapers.

        The reply carries the registry's JSON document; asking with
        ``{"format": "prometheus"}`` adds the text exposition render so
        a conventional scraper can be pointed at a replica with a
        one-line shim.
        """
        self._sampler.tick(
            metrics=self.metrics,
            events=int(self.counters.get("commits", 0)))
        reply: dict[str, Any] = {
            "kind": "metrics",
            "site": self.site_id,
            "metrics": self.metrics.to_dict(),
        }
        if message.get("format") == "prometheus":
            reply["text"] = render_prometheus(self.metrics)
        return reply

    # ------------------------------------------------------------------
    # peer RPC
    # ------------------------------------------------------------------
    async def _call_peer(
        self, site: int, message: dict[str, Any],
        parent: Optional[Span] = None,
    ) -> Optional[dict[str, Any]]:
        """One request-response to *site*; ``None`` on any failure.

        A request to the replica's own site never touches the network:
        partitioning a site away from itself is not a thing.

        With a *parent* span (and tracing on), the request gets an
        ``rpc.<kind>`` child span whose context rides the frame — the
        receiving replica's handler span, and any chaos-proxy verdict
        on the way, become its children in the merged trace.
        """
        message = dict(message, **{"from": self.site_id})
        rpc = None
        if self.recorder is not None and parent is not None:
            rpc = self.recorder.span(f"rpc.{message.get('kind')}",
                                     parent=parent, site=site)
            message[CTX_FIELD] = rpc.sent(site=site)
        reply = await self._send_peer(site, message)
        if rpc is not None:
            if reply is None:
                rpc.finish("timeout")
            else:
                remote = ctx_from_frame(reply)
                if remote is not None:
                    rpc.received(remote[2], site=site)
                rpc.finish(_response_status(reply))
        return reply

    async def _send_peer(
        self, site: int, message: dict[str, Any],
    ) -> Optional[dict[str, Any]]:
        if site == self.site_id:
            return await self._dispatch(message)
        address = self.config.peers.get(site)
        if address is None:
            return None
        link = self._links.pop(site, None)
        reused = link is not None
        while True:
            reply = None
            try:
                if link is None:
                    link = await asyncio.wait_for(
                        asyncio.open_connection(*address),
                        self.config.peer_timeout)
                    self._count("connections.dialled")
                reader, writer = link
                writer.write(encode_frame(message))
                await writer.drain()
                reply = await asyncio.wait_for(
                    read_frame(reader), self.config.peer_timeout)
            except ConnectionError:
                if not reused:
                    return None
            except (OSError, asyncio.TimeoutError, FrameError):
                return None
            finally:
                if reply is None and link is not None:
                    link[1].close()
            if reply is not None:
                self._links[site] = link
                return reply
            if not reused:
                return None
            # EOF or reset on a link that carried a reply before: the
            # peer restarted since.  Dial it again, once.
            link, reused = None, False

    async def _broadcast(
        self, sites: frozenset[int], message: dict[str, Any],
        parent: Optional[Span] = None,
    ) -> dict[int, Optional[dict[str, Any]]]:
        # Remote exchanges start first: this site's own handler runs
        # inline, and its WAL append + fsync should overlap the peers'
        # instead of preceding their sends.
        ordered = sorted(sites, key=lambda site: (site == self.site_id,
                                                  site))
        replies = dict(zip(ordered, await asyncio.gather(
            *(self._call_peer(site, dict(message), parent)
              for site in ordered)
        )))
        return {site: replies[site] for site in sorted(sites)}

    # ------------------------------------------------------------------
    # coordinator
    # ------------------------------------------------------------------
    async def _on_client_op(
        self, message: Mapping[str, Any], span: Optional[Span] = None,
    ) -> dict[str, Any]:
        op = str(message["kind"])
        key = message.get("key")
        if key is None:
            return {"kind": "error", "reason": f"{op} needs a key"}
        value = message.get("value")
        start = _time.perf_counter()
        outcome = "error"
        try:
            async with self._coord_lock:
                response = await self._coordinate(op, str(key), value,
                                                  span)
            outcome = "ok" if response.get("ok") \
                else str(response.get("outcome", "error"))
            return response
        finally:
            # Replica-side availability: what this cluster answered,
            # regardless of what any one client managed to observe.
            self.metrics.counter("service.ops", op=op,
                                 outcome=outcome).inc()
            self.metrics.histogram("service.op.seconds", op=op).observe(
                _time.perf_counter() - start)

    async def _coordinate(
        self, op: str, key: str, value: Any,
        span: Optional[Span] = None,
    ) -> dict[str, Any]:
        """Run quorum rounds for one client operation until decided;
        every round carries the same ticket, so a requeued op ages."""
        assert self.store is not None
        self._count(f"rounds.{op}")
        ticket = [_time.time(), self.site_id]
        refused = None
        for _ in range(_MAX_ROUNDS):
            outcome = await self._one_round(op, key, value, ticket,
                                            refused, span)
            if isinstance(outcome, dict):
                return outcome
            refused = outcome
        self._count("contended")
        return {"kind": "result", "ok": False, "op": op,
                "outcome": "contended",
                "reason": "coordinator lease contention"}

    async def _one_round(
        self, op: str, key: str, value: Any, ticket: list[Any],
        queue_at: Optional[int] = None, span: Optional[Span] = None,
    ) -> Union[dict[str, Any], int]:
        """One state-collection + quorum + commit attempt.

        Returns a client response, or the site that refused the lease:
        the next round first queues there (holding no lease, so it may
        wait whatever its age) and starts once that site grants.

        Traced, the round is one ``quorum.round`` span under the
        client-op span: which sites answered the state collection,
        what the paper's quorum test said and why, and who acked the
        commit all land on it as events, with one ``rpc.*`` child per
        peer exchange.
        """
        round_span = None
        if self.recorder is not None and span is not None:
            round_span = self.recorder.span(
                "quorum.round", parent=span, op=op,
                policy=self.config.policy, coordinator=self.site_id)
        if queue_at is not None:
            start = _time.perf_counter()
            queued = await self._call_peer(queue_at, {
                "kind": "state?", "ticket": ticket, "queue": True}, round_span)
            if round_span is not None:
                round_span.event("lease.wait", site=queue_at,
                                 seconds=_time.perf_counter() - start,
                                 granted=(queued or {}).get("kind") == "state")
        with self.metrics.timed("replica.round.collect.seconds"):
            states, values, busy, _ = await self._collect_states(
                key, round_span, ticket)
        if round_span is not None:
            round_span.event(
                "state.collect",
                responders=sorted(states),
                silent=sorted(self.config.copy_sites
                              - frozenset(states)),
                busy=sorted(busy))
        if busy:
            await self._release_leases(frozenset(states) - {self.site_id})
            if round_span is not None:
                round_span.finish("busy")
            return min(busy)
        with self.metrics.timed("replica.round.evaluate.seconds"):
            verdict, replica_set, protocol = evaluate_round(
                self.config.policy, states, self.config.copy_sites,
                self.config.segments,
            )
        if round_span is not None:
            round_span.event(
                "quorum.evaluate", granted=verdict.granted,
                reason=verdict.reason,
                current=sorted(verdict.current),
                newest=sorted(verdict.newest))
        if not verdict.granted:
            await self._release_leases(frozenset(states) - {self.site_id})
            self._count("denied")
            if round_span is not None:
                round_span.finish("denied", reason=verdict.reason)
            return {"kind": "result", "ok": False, "op": op,
                    "outcome": "denied", "reason": verdict.reason}
        if op == "get" and protocol is not None \
                and not protocol.commits_on_read:
            # Static protocols read without adjusting the quorum.
            await self._release_leases(frozenset(states) - {self.site_id})
            if round_span is not None:
                round_span.finish("ok")
            return self._read_result(verdict, values)
        kind = "write" if op == "put" else "read"
        plan = plan_commit(verdict, replica_set, kind, protocol=protocol)
        # The entry carries a write delta, so only recipients holding the
        # newest data may apply it (under MCV, S rather than all of R).
        targets = plan.recipients & verdict.newest
        writes = {key: value} if op == "put" else None
        entry = self.store.make_entry(
            kind, plan.operation, plan.version, plan.partition_set,
            writes=writes, coordinator=self.site_id,
        )
        with self.metrics.timed("replica.round.commit.seconds"):
            acks = await self._broadcast(
                targets, {"kind": "commit", "entry": entry}, round_span)
        await self._release_leases(
            frozenset(states) - targets - {self.site_id})
        committed = frozenset(
            site for site, reply in acks.items()
            if reply is not None and reply.get("kind") == "ok"
        )
        if round_span is not None:
            round_span.event(
                "commit.broadcast",
                partition_set=sorted(plan.partition_set),
                acked=sorted(committed),
                operation=plan.operation)
        if 2 * len(committed) <= len(targets):
            # The commit may or may not survive the next quorum round;
            # the client must treat the operation as unresolved.
            self._count("commit.minority")
            if round_span is not None:
                round_span.finish("unavailable",
                                  reason="minority commit")
            return {"kind": "result", "ok": False, "op": op,
                    "outcome": "unavailable",
                    "reason": (
                        f"commit acked by {sorted(committed)} only "
                        f"(needed a majority of {sorted(targets)})"
                    )}
        self._count(f"granted.{op}")
        if round_span is not None:
            round_span.finish("ok")
        if op == "get":
            return self._read_result(verdict, values)
        return {"kind": "result", "ok": True, "op": op,
                "version": plan.version, "operation": plan.operation,
                "site": self.site_id}

    def _read_result(
        self, verdict: Any, values: Mapping[Any, Any],
    ) -> dict[str, Any]:
        source = min(verdict.newest)
        return {"kind": "result", "ok": True, "op": "get",
                "value": values.get(source),
                "version": values.get(("version", source)),
                "site": self.site_id, "source": source}

    async def _collect_states(
        self, key: Optional[str], span: Optional[Span] = None,
        ticket: Optional[list[Any]] = None,
    ) -> tuple[dict[int, tuple[int, int, frozenset[int]]],
               dict[Any, Any], set[int],
               dict[int, dict[str, Any]]]:
        """Ask every copy site for its ``(o, v, P)`` (and *key*'s value).

        Returns ``(states, values, busy, replies)``; *busy* holds the
        sites that refused the lease — the round must abort so two
        coordinators never interleave commits.  *replies* holds the
        raw state frames (the recover loop reads the ``last`` commit
        bodies from them).  Without a *ticket* no site makes it wait.
        """
        message: dict[str, Any] = {"kind": "state?"}
        if key is not None:
            message["key"] = key
        if ticket is not None:
            message["ticket"] = ticket
        raw = await self._broadcast(self.config.copy_sites, message,
                                    span)
        states: dict[int, tuple[int, int, frozenset[int]]] = {}
        values: dict[Any, Any] = {}
        replies: dict[int, dict[str, Any]] = {}
        busy: set[int] = set()
        for site, reply in raw.items():
            kind = (reply or {}).get("kind")
            if kind == "busy":
                busy.add(site)
            if kind != "state":
                continue
            try:
                states[site] = (
                    int(reply["operation"]),
                    int(reply["version"]),
                    frozenset(int(s) for s in reply["partition_set"]),
                )
            except (KeyError, TypeError, ValueError):
                continue
            replies[site] = reply
            if "value" in reply:
                values[site] = reply["value"]
                values[("version", site)] = int(reply["version"])
        return states, values, busy, replies

    async def _release_leases(self, sites: frozenset[int]) -> None:
        self._release_lease(self.site_id)
        if sites:
            await self._broadcast(frozenset(sites), {"kind": "release"})

    # ------------------------------------------------------------------
    # RECOVER / anti-entropy loop
    # ------------------------------------------------------------------
    async def _recover_loop(self) -> None:
        """The paper's RECOVER loop, then periodic anti-entropy.

        Each tick runs one recover round: a stale replica reinserts
        itself (``COMMIT(S ∪ {l}, o_m+1, v_m, S ∪ {l})`` plus a data
        copy from the anchor); a current replica repairs any orphaned
        commit it is the max-``o`` holder of.
        """
        while True:
            await asyncio.sleep(
                self.config.recover_interval * (0.5 + self._rng.random()))
            try:
                async with self._coord_lock:
                    await self._recover_round()
            except (ProtocolError, ServiceError, ConfigurationError,
                    OSError):
                self._count("recover.errors")
            self._sampler.tick(
                metrics=self.metrics,
                events=int(self.counters.get("commits", 0)))

    async def _recover_round(self) -> None:
        span = None
        if self.recorder is not None:
            # Recovery rounds are self-caused: each gets a root trace.
            span = self.recorder.span("recover.round", site=self.site_id,
                                      policy=self.config.policy)
        status = "current"
        start = _time.perf_counter()
        try:
            status = await self._recover_once(span)
        finally:
            self.metrics.histogram(
                "replica.recover.seconds", status=status
            ).observe(_time.perf_counter() - start)
            if span is not None:
                span.finish(status)

    async def _recover_once(self, span: Optional[Span]) -> str:
        """One recover/anti-entropy round; returns its span status."""
        assert self.store is not None
        states, _, busy, replies = await self._collect_states(None, span)
        if span is not None:
            span.event("state.collect", responders=sorted(states),
                       busy=sorted(busy))
        if busy:
            await self._release_leases(frozenset(states) - {self.site_id})
            return "busy"
        if await self._maybe_rollback(replies):
            await self._release_leases(frozenset(states) - {self.site_id})
            return "rollback"
        verdict, replica_set, protocol = evaluate_round(
            self.config.policy, states, self.config.copy_sites,
            self.config.segments,
        )
        if span is not None:
            span.event("quorum.evaluate", granted=verdict.granted,
                       reason=verdict.reason,
                       current=sorted(verdict.current))
        others = frozenset(states) - {self.site_id}
        if not verdict.granted:
            await self._release_leases(others)
            await self._maybe_repair(states, span)
            return "denied"
        if self.site_id in verdict.current:
            await self._release_leases(others)
            if self.recovery_info is not None \
                    and not self.recovery_info.get("reinserted"):
                self.recovery_info["reinserted"] = True
                self._write_recovery_marker()
            return "current"
        # Stale: reinsert with a data copy from the newest anchor.
        plan = plan_commit(verdict, replica_set, "recover",
                           recovering_site=self.site_id, protocol=protocol)
        fetched = await self._call_peer(plan.anchor, {"kind": "fetch"},
                                        span)
        if fetched is None or fetched.get("kind") != "data":
            await self._release_leases(others)
            return "fetch-failed"
        base_entry = self.store.make_entry(
            "recover", plan.operation, plan.version, plan.partition_set,
            coordinator=self.site_id,
        )
        acks: dict[int, Optional[dict[str, Any]]] = {}
        for site in sorted(plan.recipients):
            entry = dict(base_entry)
            if site == self.site_id:
                entry["data"] = dict(fetched["data"])
            acks[site] = await self._call_peer(
                site, {"kind": "commit", "entry": entry}, span)
        await self._release_leases(others - plan.recipients)
        if (acks.get(self.site_id) or {}).get("kind") == "ok":
            self._count("recovered")
            if self.recovery_info is not None:
                self.recovery_info["reinserted"] = True
                self.recovery_info["reinserted_operation"] = \
                    self.store.state.operation
                self._write_recovery_marker()
            return "reinserted"
        return "reinsert-failed"

    async def _maybe_rollback(
        self, replies: Mapping[int, Mapping[str, Any]],
    ) -> bool:
        """Discard an orphaned tail commit (crashed-coordinator victim).

        A SIGKILL in mid-broadcast can leave this replica holding a
        commit no other site ever saw, while the surviving majority
        committed a *different* body under the same number.  When
        :func:`~repro.core.rounds.rollback_source` proves the rival
        majority-committed, adopt the rival holder's full durable state
        (state, data *and* history) and let the normal RECOVER flow take
        it from there.

        Returns ``True`` when a rollback happened this round.
        """
        assert self.store is not None
        if self.store.latest is None:
            return False
        source = rollback_source(self.site_id, self.store.latest, replies)
        if source is None:
            return False
        fetched = await self._call_peer(
            source, {"kind": "fetch", "history": True})
        if fetched is None or fetched.get("kind") != "data":
            return False
        self.store.install_remote(
            fetched["state"], fetched["data"], fetched.get("history", []))
        self._count("rollbacks")
        return True

    async def _maybe_repair(self, states: Mapping[int, tuple],
                            span: Optional[Span] = None) -> None:
        """Re-broadcast an orphaned commit (crashed coordinator repair)
        to the members :func:`~repro.core.rounds.repair_targets` names.

        The payload installs the holder's full data map, so receivers
        skip no write deltas.
        """
        assert self.store is not None
        state = self.store.state
        behind = repair_targets(state.operation, state.partition_set, states)
        latest = self.store.latest
        if not behind or latest is None:
            return
        # Re-deliver the holder's latest commit with its original kind
        # and write digest, so the receivers' histories stay body-equal
        # with every replica that applied the commit first-hand.
        entry = self.store.make_entry(
            latest["kind"], state.operation, state.version,
            state.partition_set, data=dict(self.store.data),
            coordinator=self.site_id,
        )
        entry["writes_digest"] = latest["writes_digest"]
        if span is not None:
            span.event("commit.repair", behind=sorted(behind),
                       operation=state.operation)
        await self._broadcast(behind, {"kind": "commit", "entry": entry},
                              span)
        self._count("repairs")


async def serve_replica(config: ReplicaConfig) -> None:
    """Run one replica until cancelled (the CLI entry point)."""
    server = ReplicaServer(config)
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.stop()
