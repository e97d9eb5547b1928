"""The chaos TCP proxy: live network faults at frame granularity.

Every connection in a chaos-enabled cluster — client to replica and
replica to replica — is dialled at the proxy's listen port for the
destination replica; the proxy forwards frames to the real replica
port.  Because the wire format is frame-oriented, the proxy injects
the chaos schedule's message-level verbs exactly where the paper's
fault model defines them:

* **partition** — frames between replicas in different blocks are
  swallowed (requests simply time out, like a severed link).  Client
  frames always pass: a partition separates sites from each other, not
  users from the site they can reach — whether that site can muster a
  quorum is the protocols' problem, which is the whole point;
* **drop** — a seeded coin per replica-to-replica frame;
* **delay** — a seeded coin per frame, holding it back long enough to
  reorder with its neighbours.

Rules are mutable at runtime (:class:`ChaosRules`); the live-fault
driver flips them mid-run on the schedule's clock.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Iterable, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.dtrace.context import ctx_from_frame
from repro.obs.dtrace.spans import SpanRecorder
from repro.service.frames import FrameError, encode_frame, read_frame

__all__ = [
    "ChaosProxy",
    "ChaosRules",
]


class ChaosRules:
    """The proxy's current fault configuration (mutable, shared).

    Attributes:
        drop_rate: Probability a replica-to-replica frame is swallowed.
        delay_rate: Probability a frame is held back.
        delay_s: How long a delayed frame is held.
        rng: Seeded source for the drop/delay coins.
        window: Monotonic fault-window counter — bumped every time the
            live-fault driver mutates these rules, so a traced frame
            verdict can name the injected fault that caused it
            ("dropped by fault window #4").
        last_fault: The fault event that opened the current window.
    """

    def __init__(
        self,
        drop_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_s: float = 0.05,
        rng: Optional[random.Random] = None,
    ):
        for name, rate in (("drop_rate", drop_rate),
                           ("delay_rate", delay_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        self.drop_rate = drop_rate
        self.delay_rate = delay_rate
        self.delay_s = delay_s
        self.rng = rng or random.Random()
        self.window = 0
        self.last_fault: Optional[dict[str, Any]] = None
        self._blocks: Optional[tuple[frozenset[int], ...]] = None

    def note_fault(self, description: Optional[dict[str, Any]] = None,
                   ) -> int:
        """Open a new fault window; returns its number."""
        self.window += 1
        self.last_fault = dict(description or {},
                               window=self.window)
        return self.window

    # ------------------------------------------------------------------
    @property
    def partition(self) -> Optional[tuple[frozenset[int], ...]]:
        """The current partition blocks, or ``None`` when healed."""
        return self._blocks

    def set_partition(self, blocks: Iterable[Iterable[int]]) -> None:
        """Partition the replicas into *blocks* (site-id groups)."""
        self._blocks = tuple(frozenset(int(s) for s in group)
                             for group in blocks)

    def heal(self) -> None:
        """Remove the partition."""
        self._blocks = None

    def severed(self, a: Optional[int], b: Optional[int]) -> bool:
        """Whether frames between sites *a* and *b* are cut off.

        ``None`` marks a client endpoint; clients are never severed
        from the replica they dialled.
        """
        if self._blocks is None or a is None or b is None or a == b:
            return False
        block_a = next((blk for blk in self._blocks if a in blk), None)
        block_b = next((blk for blk in self._blocks if b in blk), None)
        return block_a is not block_b

    def verdict(self, src: Optional[int], dst: Optional[int]) -> str:
        """``"drop"``, ``"delay"`` or ``"pass"`` for one frame."""
        return self.decide(src, dst)[0]

    def decide(
        self, src: Optional[int], dst: Optional[int],
    ) -> tuple[str, str]:
        """The verdict plus its cause: ``("drop", "partition")``,
        ``("drop", "coin")``, ``("delay", "coin")`` or ``("pass", "")``.

        One call consumes at most the coins the verdict needed, so a
        traced proxy makes exactly the same decisions as an untraced
        one under the same seed.
        """
        if self.severed(src, dst):
            return "drop", "partition"
        if src is None or dst is None:
            return "pass", ""  # message-level chaos targets peer traffic
        if self.drop_rate and self.rng.random() < self.drop_rate:
            return "drop", "coin"
        if self.delay_rate and self.rng.random() < self.delay_rate:
            return "delay", "coin"
        return "pass", ""


class ChaosProxy:
    """One listener per replica, forwarding frames through the rules.

    Args:
        host: Address to listen and dial on.
        routes: ``{site: (listen_port, upstream_port)}`` — 0 for a
            listen port lets the OS pick (read it back from
            :meth:`listen_port`).
        rules: The mutable fault configuration.
        recorder: Optional span recorder — a drop/delay verdict on a
            frame carrying trace context then becomes a span in that
            frame's trace, annotated with the fault window that caused
            it.  Untraced frames and ``pass`` verdicts record nothing.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when set, every verdict counts into ``proxy.frames`` and
            forwarded wire bytes into ``proxy.frame.bytes`` per
            direction — the scraper reads them in-process.
    """

    def __init__(
        self,
        host: str,
        routes: Mapping[int, Tuple[int, int]],
        rules: Optional[ChaosRules] = None,
        recorder: Optional[SpanRecorder] = None,
        metrics: Optional[Any] = None,
    ):
        if not routes:
            raise ConfigurationError("proxy needs at least one route")
        self.host = host
        self.routes = {int(site): (int(listen), int(upstream))
                       for site, (listen, upstream) in routes.items()}
        self.rules = rules or ChaosRules()
        self.recorder = recorder
        self.metrics = metrics
        self.forwarded = 0
        self.dropped = 0
        self.delayed = 0
        self._servers: dict[int, asyncio.base_events.Server] = {}
        self._relays: dict[asyncio.Task,
                           list[asyncio.StreamWriter]] = {}

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind every route's listener."""
        for site, (listen, _) in sorted(self.routes.items()):
            self._servers[site] = await asyncio.start_server(
                self._acceptor(site), self.host, listen,
            )

    async def stop(self) -> None:
        """Close all listeners and end every live relay."""
        for server in self._servers.values():
            server.close()
        # Before wait_closed(), which on Python >= 3.12 waits for them.
        # Hung up on, a relay ends by itself (cancelling its task would
        # make the stream server of Python <= 3.11 log the cancellation).
        for writers in self._relays.values():
            for writer in writers:
                writer.close()
        if self._relays:
            await asyncio.wait(list(self._relays))
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()

    def listen_port(self, site: int) -> int:
        """The bound listen port for *site*'s route."""
        server = self._servers.get(site)
        if server is None or not server.sockets:
            raise ConfigurationError(f"no running listener for site {site}")
        return int(server.sockets[0].getsockname()[1])

    # ------------------------------------------------------------------
    def _annotate(
        self,
        message: Mapping[str, Any],
        action: str,
        cause: str,
        src: Optional[int],
        dst: Optional[int],
        finished: bool = True,
    ) -> Optional[Any]:
        """Record one chaos verdict as a span in the frame's trace.

        Only frames carrying trace context can be blamed — the span
        becomes a child of whatever span sent the frame, annotated
        with the fault window in force, which is how a merged trace
        names the injected fault behind a dropped RPC.
        """
        if self.recorder is None:
            return None
        ctx = ctx_from_frame(message)
        if ctx is None:
            return None
        span = self.recorder.span(
            f"proxy.{action}", ctx=ctx,
            kind=str(message.get("kind")), src=src, dst=dst,
            cause=cause)
        if self.rules.window:
            span.annotate(window=self.rules.window)
        if cause == "partition" and self.rules.last_fault is not None:
            span.annotate(fault=dict(self.rules.last_fault))
        if finished:
            span.finish("dropped" if action == "drop" else "delayed")
            return None
        return span

    def _acceptor(self, site: int):
        async def handle(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            await self._handle(site, reader, writer)
        return handle

    async def _handle(
        self, site: int,
        down_reader: asyncio.StreamReader,
        down_writer: asyncio.StreamWriter,
    ) -> None:
        _, upstream_port = self.routes[site]
        relay = asyncio.current_task()
        writers = self._relays[relay] = [down_writer]
        pumps: list[asyncio.Task] = []
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.host, upstream_port)
            writers.append(up_writer)
            identity: dict[str, Optional[int]] = {"src": None}
            pumps = [
                asyncio.create_task(self._pump(
                    down_reader, up_writer, identity, site, inbound=True)),
                asyncio.create_task(self._pump(
                    up_reader, down_writer, identity, site, inbound=False)),
            ]
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        except OSError:
            pass  # upstream is away: hang up on the caller
        finally:
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            for writer in writers:
                writer.close()
            del self._relays[relay]  # last: stop() waits for the above

    async def _pump(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        identity: dict[str, Optional[int]],
        site: int,
        inbound: bool,
    ) -> None:
        """Forward frames one way, applying the rules per frame."""
        while True:
            try:
                message = await read_frame(reader)
            except FrameError:
                return
            if message is None:
                return
            if inbound:
                sender = message.get("from")
                identity["src"] = int(sender) \
                    if isinstance(sender, int) and sender > 0 else None
                src, dst = identity["src"], site
            else:
                src, dst = site, identity["src"]
            direction = "in" if inbound else "out"
            action, cause = self.rules.decide(src, dst)
            if self.metrics is not None:
                self.metrics.counter("proxy.frames", verdict=action,
                                     direction=direction).inc()
            if action == "drop":
                self.dropped += 1
                self._annotate(message, "drop", cause, src, dst)
                continue
            if action == "delay":
                self.delayed += 1
                span = self._annotate(message, "delay", cause,
                                      src, dst, finished=False)
                await asyncio.sleep(self.rules.delay_s)
                if span is not None:
                    span.finish("delayed")
            self.forwarded += 1
            payload = encode_frame(message)
            if self.metrics is not None:
                self.metrics.counter("proxy.frame.bytes",
                                     direction=direction).inc(len(payload))
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError):
                return
