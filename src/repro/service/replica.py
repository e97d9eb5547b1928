"""The asyncio replica server: the I/O half of one live replica.

One :class:`ReplicaServer` is one paper "site".  Every decision it
makes is its :class:`~repro.service.machine.ReplicaMachine`'s; this
module keeps what needs a socket, a clock or a task: the TCP frame
server and kept peer links, the loop that steps the machine's round
generators (remote sites are sent to first and this site's handler runs
inline last, so a local WAL append + fsync overlaps the peers' work),
one future per queued client operation (a task drains the machine's
pipeline while any is queued) and per ``state?`` queued for the lease
(bounded at an eighth of ``peer_timeout``, :mod:`repro.service.lease`
says why), forwarding a client operation the machine names a holder
for, the coordinator lock, the jittered RECOVER timer, spans, metrics
and the lifecycle.

A restarting replica recovers from snapshot + WAL, verifies the replay
against an independent cold read and writes the result to a
``recovery.json`` marker the bench asserts on; its RECOVER rounds then
run until a quorum reinserts it.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time as _time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

from repro.core.registry import available_policies
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
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.service.frames import FrameError, encode_frame, read_frame
from repro.service.machine import QUEUED, RELEASE, ReplicaMachine, \
    Reply, Send, Steps
from repro.service.store import DurableReplica

__all__ = ["ReplicaConfig", "ReplicaServer", "serve_replica"]

#: File a restarting replica writes its recovery verification into.
RECOVERY_MARKER = "recovery.json"


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
    compact_every: int = 64
    lease_s: float = 1.0
    peer_timeout: float = 0.6
    recover_interval: float = 0.75
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
    """One live replica: TCP frame server + the machine's I/O.

    Connection rules: an accepted connection serves frames until its
    peer closes it, and this replica keeps one link per peer site,
    carrying one request at a time — taken out of the table while a
    request is in flight, put back only after a complete reply.  A
    request that finds the link in flight (a forward beside a round or
    another forward) dials its own, and closes it after the reply if
    the kept link is back by then.  A time-out or torn frame closes
    the link and counts the peer as silent this round; only an EOF or
    reset on a *reused* link — the peer restarted since it was last
    used — is redialled once first.  :meth:`stop` closes every accepted
    connection and every kept link, so a stopped replica is silent.
    """

    def __init__(self, config: ReplicaConfig):
        self.config = config
        self.site_id = config.site_id
        self.store: Optional[DurableReplica] = None
        self.machine: Optional[ReplicaMachine] = None
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
        #: One future per queued ``state?`` request, by requesting site.
        self._waiting: dict[int, asyncio.Future[bool]] = {}
        #: ``(future, span)`` per queued client operation, by its id.
        self._ops: dict[int, tuple[asyncio.Future[dict[str, Any]],
                                   Optional[Span]]] = {}
        self._op_ids = itertools.count(1)
        self._drainer: Optional[asyncio.Task] = None
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
        self.machine = ReplicaMachine(
            self.site_id, self.config.copy_sites, self.config.policy,
            self.store, segments=self.config.segments,
            lease_s=self.config.lease_s,
            follow_s=self.config.peer_timeout / 8, metrics=self.metrics,
            counters=self.counters, recovery=self.recovery_info,
        )
        if self.config.trace:
            # Append-only, next to the WAL: a restart extends the log.
            self.recorder = SpanRecorder(
                JsonlSpanSink(self.store.directory / SPAN_LOG_NAME),
                proc=f"site-{self.site_id}",
            )
            self.machine.traced = True
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
        for task in (self._recover_task, self._drainer):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._recover_task = self._drainer = None
        for future, _ in self._ops.values():
            future.cancel()
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

    def _now(self) -> float:
        return asyncio.get_running_loop().time()

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
            if kind == "metrics?":
                return self._on_metrics(message)
            if kind in ("get", "put"):
                return await self._on_client_op(message, span)
        except (ProtocolError, WALCorruptionError, ServiceError,
                ConfigurationError) as exc:
            self._count("errors")
            return {"kind": "error", "reason": str(exc)}
        assert self.machine is not None
        response, wakes = self.machine.handle(message, self._now())
        self._wake(wakes)
        if response is QUEUED:
            granted = await self._wait_for_lease(int(message.get("from", 0)))
            response = self.machine.answer_state(message, granted)
        return response

    # -- the lease queue --------------------------------------------------
    async def _wait_for_lease(self, holder: int) -> bool:
        """Whether *holder*'s queued ``state?`` gets the lease within an
        eighth of the peer time-out (:mod:`repro.service.lease` says
        why so short)."""
        waiter = self._waiting[holder] = \
            asyncio.get_running_loop().create_future()
        try:
            await asyncio.wait((waiter,),
                               timeout=self.config.peer_timeout / 8)
        finally:
            if self._waiting.get(holder) is waiter:
                del self._waiting[holder]
            if not waiter.done():
                self.machine.leases.withdraw(holder)  # type: ignore[union-attr]
        return waiter.done() and waiter.result()

    def _wake(self, wakes: Any) -> None:
        """Answer the queued ``state?`` requests the machine named."""
        for site, granted in wakes:
            waiter = self._waiting.pop(site, None)
            if waiter is not None:
                waiter.set_result(granted)

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
                if site in self._links:  # an overlapping request's link
                    link[1].close()
                else:
                    self._links[site] = link
                return reply
            if not reused:
                return None
            # EOF or reset on a link that carried a reply before: the
            # peer restarted since.  Dial it again, once.
            link, reused = None, False

    async def _broadcast(
        self, messages: Mapping[int, Mapping[str, Any]],
        parent: Optional[Span] = None,
    ) -> dict[int, Optional[dict[str, Any]]]:
        # Remote exchanges start first: this site's own handler runs
        # inline, and its WAL append + fsync should overlap the peers'
        # instead of preceding their sends.
        ordered = sorted(messages, key=lambda site: (site == self.site_id,
                                                     site))
        replies = dict(zip(ordered, await asyncio.gather(
            *(self._call_peer(site, dict(messages[site]), parent)
              for site in ordered)
        )))
        return {site: replies[site] for site in sorted(messages)}

    # ------------------------------------------------------------------
    # the stepping loop
    # ------------------------------------------------------------------
    async def _run(self, steps: Steps, span: Optional[Span] = None) -> Any:
        """Drive one of the machine's round generators to its result.

        Sends go out as one broadcast each; a client round's collect
        and commit stages are timed, and its queueing at a refusing
        site is a ``lease.wait`` event.  A :class:`Reply` resolves its
        operation's future.  Traced, the machine's span records open,
        annotate and finish children of *span*, or of the named
        operation's ``replica.<op>`` span.
        """
        stacks: dict[Any, list[Optional[Span]]] = {None: [span]}

        def stack(op: Any) -> list[Optional[Span]]:
            if op not in stacks:
                stacks[op] = [self._ops[op][1] if op in self._ops else None]
            return stacks[op]

        reply: Any = None
        while True:
            try:
                effect = steps.send(reply)
            except StopIteration as stop:
                return stop.value
            reply = None
            if effect is RELEASE:
                self._wake(self.machine.release(  # type: ignore[union-attr]
                    self.site_id, self._now()))
            elif isinstance(effect, Reply):
                future = self._ops.get(effect.op_id, (None,))[0]
                if future is not None and not future.done():
                    future.set_result(effect.result)
            elif isinstance(effect, Send):
                parent = stack(effect.op)[-1]
                start = _time.perf_counter()
                reply = await self._broadcast(
                    effect.messages, parent if effect.traced else None)
                elapsed = _time.perf_counter() - start
                if effect.stage in ("collect", "commit"):
                    self.metrics.histogram(
                        f"replica.round.{effect.stage}.seconds"
                    ).observe(elapsed)
                elif effect.stage == "queue" and parent is not None:
                    [(site, answer)] = reply.items()
                    parent.event(
                        "lease.wait", site=site, seconds=elapsed,
                        granted=(answer or {}).get("kind") == "state")
            else:
                spans = stack(effect.op)
                if spans[-1] is None:
                    continue
                if effect.action == "open":
                    spans.append(self.recorder.span(  # type: ignore[union-attr]
                        effect.name, parent=spans[-1], **effect.fields))
                elif effect.action == "event":
                    spans[-1].event(effect.name, **effect.fields)
                elif len(spans) > 1:  # the root is its owner's to finish
                    spans.pop().finish(effect.name, **effect.fields)

    async def _on_client_op(
        self, message: Mapping[str, Any], span: Optional[Span] = None,
    ) -> dict[str, Any]:
        """Forward a client operation, or queue it for the pipeline and
        wait for its reply."""
        assert self.machine is not None
        op = kind = str(message["kind"])
        holder = self.machine.forward_to(message, self._now())
        if holder is not None:
            reply = self.machine.relay(await self._call_peer(
                holder, dict(message, forwarded=True), span))
            if reply is not None:
                # Timed where it ran: the holder observed service.op.
                return reply
            kind = "probe"
        start = _time.perf_counter()
        outcome = "error"
        op_id = next(self._op_ids)
        future = asyncio.get_running_loop().create_future()
        self._ops[op_id] = (future, span)
        try:
            refused = self.machine.submit(
                op_id, kind, message.get("key"), message.get("value"),
                [_time.time(), self.site_id])
            if refused is not None:
                return refused
            if self._drainer is None:
                self._drainer = asyncio.create_task(self._drain())
            response = await future
            outcome = "ok" if response.get("ok") \
                else str(response.get("outcome", "error"))
            return response
        finally:
            self._ops.pop(op_id, None)
            # Replica-side availability: what this cluster answered,
            # regardless of what any one client managed to observe.
            self.metrics.counter("service.ops", op=op,
                                 outcome=outcome).inc()
            self.metrics.histogram("service.op.seconds", op=op).observe(
                _time.perf_counter() - start)

    async def _drain(self) -> None:
        """Run the machine's pipeline while client operations are queued,
        taking the coordinator lock afresh for each run, so a RECOVER
        round the pipeline made way for goes first."""
        machine = self.machine
        assert machine is not None
        try:
            while machine.queued:
                async with self._coord_lock:
                    await self._run(machine.pipeline())
        except Exception:
            # The machine answered every queued operation and freed its
            # leases before raising; the next operation drains anew.
            self._count("errors")
            get_logger("service").exception("replica %d: pipeline failed",
                                             self.site_id)
        finally:
            self._drainer = None

    # ------------------------------------------------------------------
    # RECOVER / anti-entropy loop
    # ------------------------------------------------------------------
    async def _recover_loop(self) -> None:
        """The paper's RECOVER loop, then periodic anti-entropy: one
        :meth:`~repro.service.machine.ReplicaMachine.recover_round`
        per jittered tick."""
        while True:
            await asyncio.sleep(
                self.config.recover_interval * (0.5 + self._rng.random()))
            self.machine.recover_due = True  # type: ignore[union-attr]
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
        assert self.machine is not None
        span = None
        if self.recorder is not None:
            # Recovery rounds are self-caused: each gets a root trace.
            span = self.recorder.span("recover.round", site=self.site_id,
                                      policy=self.config.policy)
        before = dict(self.machine.recovery)
        status = "current"
        start = _time.perf_counter()
        try:
            status = await self._run(self.machine.recover_round(), span)
        finally:
            self.metrics.histogram(
                "replica.recover.seconds", status=status
            ).observe(_time.perf_counter() - start)
            if span is not None:
                span.finish(status)
            if self.machine.recovery != before:
                self._write_recovery_marker()


async def serve_replica(config: ReplicaConfig) -> None:
    """Run one replica until cancelled (the CLI entry point)."""
    server = ReplicaServer(config)
    await server.start()
    try:
        await server.serve_forever()
    finally:
        await server.stop()
