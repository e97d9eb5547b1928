"""A second driver for :class:`~repro.service.machine.ReplicaMachine`:
N replicas on one :class:`repro.sim.Simulation`, with no sockets, no
tasks and no wall clock.

Each site is a real machine over a real :class:`~repro.service.store.
DurableReplica` (``fsync="never"``) under one directory, laid out as
:class:`~repro.service.cluster.LocalCluster` lays it out, so
:func:`~repro.service.invariants.collect_histories` reads it.  The
driver does what :class:`~repro.service.replica.ReplicaServer` does
with asyncio, on simulated time:

* every frame crosses a JSON round trip and ``latency`` seconds per
  hop; a request unanswered after ``peer_timeout`` resumes its round
  with ``None``; remote sites are sent to first and the local handler
  runs inline last;
* a queued ``state?`` waits at most ``peer_timeout / 8``;
* a client operation is forwarded when the machine says so, or queued,
  and one pipeline runs the queue;
* one coordination generator at a time per site (the coordinator
  lock), and a RECOVER tick every ``recover_interval * (0.5 + u)``
  with ``u`` drawn from the cluster's seeded generator; the tick sets
  the machine's ``recover_due``, so a running pipeline makes way;
* fault rules: directed drops per link, optionally per frame kind
  (:meth:`SimCluster.drop`, :meth:`SimCluster.partition`), and
  "the coordinator dies after k of its n COMMIT sends"
  (:meth:`SimCluster.crash_after_commits`).

Every send is logged in :attr:`SimCluster.frames`; the same seed and
the same calls give the same log.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
from collections import deque
from typing import Any, Callable, Iterable, Optional

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ServiceError,
    WALCorruptionError,
)
from repro.service.machine import QUEUED, RELEASE, ReplicaMachine, \
    Reply, Send
from repro.service.store import DurableReplica
from repro.sim import Simulation

Respond = Callable[[Optional[dict]], None]


class SimNode:
    """One simulated replica process: a machine plus its I/O state."""

    def __init__(self, cluster: "SimCluster", site: int):
        self.cluster = cluster
        self.site = site
        self.up = False
        self.epoch = 0
        self.machine: Optional[ReplicaMachine] = None
        self.store: Optional[DurableReplica] = None
        self.counters: dict[str, int] = {}
        self._jobs: deque = deque()
        self._locked = False
        #: Who answers each queued client operation, by operation id.
        self._replies: dict[int, Respond] = {}
        self._draining = False
        #: Queued ``state?`` requests: ``{holder: (message, respond, timer)}``.
        self._waiting: dict[int, tuple] = {}
        self._crash_after: Optional[int] = None

    @property
    def directory(self) -> pathlib.Path:
        return self.cluster.root / f"site-{self.site}"

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Open (or reopen) the store and serve, as a process restart."""
        sites = self.cluster.sites
        probe = DurableReplica(self.directory, self.site, sites)
        had_state = probe.wal.path.exists() or probe.snapshots.path.exists()
        self.store = DurableReplica.open(self.directory, self.site, sites,
                                         fsync="never", compact_every=64)
        recovery = self.store.verify_recovery()
        recovery["had_state"] = had_state
        recovery["reinserted"] = False
        self.counters = {}
        self.machine = ReplicaMachine(
            self.site, frozenset(sites), self.cluster.policy, self.store,
            lease_s=self.cluster.lease_s,
            follow_s=self.cluster.peer_timeout / 8, counters=self.counters,
            recovery=recovery)
        self.up = True
        self.epoch += 1
        self._schedule_recover()

    def crash(self) -> None:
        """Stop at once: queued work, waits and in-flight rounds vanish."""
        self.up = False
        self.epoch += 1
        self._jobs.clear()
        self._locked = False
        self._replies.clear()
        self._draining = False
        for _, _, timer in self._waiting.values():
            self.cluster.sim.cancel(timer)
        self._waiting.clear()
        self._crash_after = None
        self.store.close()  # type: ignore[union-attr]

    # -- serving frames --------------------------------------------------
    def client(self, message: dict, respond: Respond) -> None:
        """A client operation arrives: forward it or queue it."""
        if not self.up:
            return
        holder = self.machine.forward_to(  # type: ignore[union-attr]
            message, self.cluster.sim.now)
        if holder is None:
            self._queue(message["kind"], message, respond)
            return

        def relayed(reply: Optional[dict]) -> None:
            relay = self.machine.relay(reply)  # type: ignore[union-attr]
            if relay is None:
                self._queue("probe", message, respond)
            else:
                respond(relay)

        self.cluster.request(self.site, holder,
                             dict(message, forwarded=True), relayed)

    def _queue(self, kind: str, message: dict, respond: Respond) -> None:
        machine = self.machine
        op_id = next(self.cluster.op_ids)
        refused = machine.submit(  # type: ignore[union-attr]
            op_id, kind, message.get("key"), message.get("value"),
            [self.cluster.sim.now, self.site])
        if refused is not None:
            respond(refused)
            return
        self._replies[op_id] = respond
        if not self._draining:
            self._draining = True
            self.run(machine.pipeline, self._drained)  # type: ignore[union-attr]

    def _drained(self, result: Any) -> None:
        if self.machine.queued:  # type: ignore[union-attr]
            self.run(self.machine.pipeline,  # type: ignore[union-attr]
                     self._drained)
        else:
            self._draining = False

    def serve(self, message: dict, respond: Respond) -> None:
        if message.get("kind") in ("get", "put"):
            self.client(message, respond)
            return
        reply, wakes = self.machine.handle(  # type: ignore[union-attr]
            message, self.cluster.sim.now)
        self._wake(wakes)
        if reply is not QUEUED:
            respond(reply)
            return
        holder = message.get("from", 0)
        epoch = self.epoch

        def give_up() -> None:
            if self.epoch == epoch and holder in self._waiting:
                del self._waiting[holder]
                self.machine.leases.withdraw(holder)  # type: ignore[union-attr]
                respond(self.machine.answer_state(  # type: ignore[union-attr]
                    message, False))

        timer = self.cluster.sim.schedule(self.cluster.peer_timeout / 8,
                                          give_up)
        self._waiting[holder] = (message, respond, timer)

    def _wake(self, wakes: Iterable[tuple[int, bool]]) -> None:
        for site, granted in wakes:
            waiting = self._waiting.pop(site, None)
            if waiting is not None:
                message, respond, timer = waiting
                self.cluster.sim.cancel(timer)
                respond(self.machine.answer_state(  # type: ignore[union-attr]
                    message, granted))

    # -- coordinating ----------------------------------------------------
    def run(self, start: Callable[[], Any],
            done: Callable[[Any], None]) -> None:
        """Run the generator *start* builds under the coordinator lock,
        then hand its result to *done*."""
        self._jobs.append((start, done))
        if not self._locked:
            self._next_job()

    def _next_job(self) -> None:
        if self._locked or not self._jobs or not self.up:
            return
        start, done = self._jobs.popleft()
        self._locked = True
        self._step(start(), None, done, self.epoch)

    def _step(self, steps: Any, reply: Any, done: Callable[[Any], None],
              epoch: int) -> None:
        if epoch != self.epoch:
            return  # the process died mid-round
        while True:
            try:
                effect = steps.send(reply)
            except StopIteration as stop:
                self._finish(done, stop.value)
                return
            except (ProtocolError, WALCorruptionError, ServiceError,
                    ConfigurationError) as exc:
                # What ReplicaServer answers (or its RECOVER loop counts).
                self.counters["errors"] = self.counters.get("errors", 0) + 1
                self._finish(done, {"kind": "error", "reason": str(exc)})
                return
            reply = None
            if effect is RELEASE:
                self._wake(self.machine.release(  # type: ignore[union-attr]
                    self.site, self.cluster.sim.now))
            elif isinstance(effect, Reply):
                respond = self._replies.pop(effect.op_id, None)
                if respond is not None:
                    respond(effect.result)
            elif isinstance(effect, Send):
                self._scatter(effect, lambda replies: self._step(
                    steps, replies, done, epoch))
                return

    def _finish(self, done: Callable[[Any], None], result: Any) -> None:
        self._locked = False
        done(result)
        self._next_job()

    def _scatter(self, send: Send,
                 resume: Callable[[dict], None]) -> None:
        """Send every frame (remote first, local last), then resume the
        round once each has a reply or timed out."""
        cluster = self.cluster
        ordered = sorted(send.messages,
                         key=lambda site: (site == self.site, site))
        replies: dict[int, Optional[dict]] = {}
        started = cluster.sim.now
        commits = any(message.get("kind") == "commit"
                      for message in send.messages.values())
        label = f"commit[{send.ops}]" if commits and send.ops > 1 else None

        def collect(site: int, reply: Optional[dict]) -> None:
            replies[site] = reply
            if len(replies) == len(ordered):
                if send.stage == "queue":
                    [(waited, answer)] = replies.items()
                    cluster.lease_waits.append((
                        self.site, waited, cluster.sim.now - started,
                        (answer or {}).get("kind") == "state"))
                # Resume as its own event, so a round never recurses.
                cluster.sim.schedule(0.0, lambda: resume(
                    {site: replies[site] for site in sorted(replies)}))

        for count, site in enumerate(ordered):
            if commits and self._crash_after is not None \
                    and count == self._crash_after:
                self.crash()
                return
            cluster.request(self.site, site, dict(send.messages[site]),
                            lambda reply, site=site: collect(site, reply),
                            label)
        if commits and self._crash_after == len(ordered):
            self.crash()

    def _schedule_recover(self) -> None:
        cluster = self.cluster
        if cluster.recover_interval is None:
            return
        epoch = self.epoch

        def tick() -> None:
            if self.epoch == epoch:
                self.machine.recover_due = True  # type: ignore[union-attr]
                self.run(self.machine.recover_round,  # type: ignore[union-attr]
                         lambda status: self._schedule_recover())

        cluster.sim.schedule(
            cluster.recover_interval * (0.5 + cluster.rng.random()), tick)


class SimCluster:
    """N simulated replicas under *root* (``site-<n>`` directories).

    Args:
        root: Cluster directory.
        n: Number of sites (1..n).
        policy: Protocol every machine runs.
        seed: Seeds the RECOVER jitter.
        latency: One-way frame delay, seconds.
        recover_interval: RECOVER cadence; ``None`` runs no RECOVER loop.
    """

    def __init__(self, root: Any, n: int = 3, policy: str = "ODV",
                 seed: int = 0, latency: float = 0.001,
                 lease_s: float = 1.0, peer_timeout: float = 0.6,
                 recover_interval: Optional[float] = 0.75):
        self.root = pathlib.Path(root)
        self.sites = tuple(range(1, n + 1))
        self.policy = policy
        self.latency = latency
        self.lease_s = lease_s
        self.peer_timeout = peer_timeout
        self.recover_interval = recover_interval
        self.rng = random.Random(seed)
        self.op_ids = itertools.count(1)
        self.sim = Simulation()
        #: ``(time, src, dst, kind, fate)`` for every frame sent; a COMMIT
        #: answering *n* > 1 client operations is logged as ``commit[n]``.
        self.frames: list[tuple] = []
        #: ``(site, waited at, seconds, granted)`` per lease-queue wait.
        self.lease_waits: list[tuple] = []
        self._drops: set[tuple[int, int, Optional[str]]] = set()
        self.nodes = {site: SimNode(self, site) for site in self.sites}
        for node in self.nodes.values():
            node.start()

    # -- fault rules -----------------------------------------------------
    def drop(self, src: int, dst: int, kind: Optional[str] = None) -> None:
        """Drop frames from *src* to *dst* (only *kind* frames if given)."""
        self._drops.add((src, dst, kind))

    def partition(self, *groups: Iterable[int]) -> None:
        """Cut every link between sites of different *groups*."""
        side = {site: index for index, group in enumerate(groups)
                for site in group}
        for src in self.sites:
            for dst in self.sites:
                if side.get(src) != side.get(dst):
                    self.drop(src, dst)

    def heal(self) -> None:
        self._drops.clear()

    def crash_after_commits(self, site: int, sent: int) -> None:
        """Site *site* dies after *sent* frames of its next COMMIT
        broadcast (remote sites first, its own inline last)."""
        self.nodes[site]._crash_after = sent

    def _dropped(self, src: int, dst: int, kind: Any) -> bool:
        return (src, dst, None) in self._drops \
            or (src, dst, kind) in self._drops

    # -- the network -----------------------------------------------------
    def request(self, src: int, dst: int, message: dict,
                on_reply: Respond, label: Optional[str] = None) -> None:
        """One request-response, answered exactly once (``None`` after
        the peer time-out); logged as *label* (default: its kind)."""
        message = json.loads(json.dumps(dict(message, **{"from": src})))
        kind = message.get("kind")
        label = label or kind
        node = self.nodes[dst]
        pending = {"open": True}
        epoch = self.nodes[src].epoch

        def answer(reply: Optional[dict], timed_out: bool = False) -> None:
            if pending["open"] and self.nodes[src].epoch == epoch:
                pending["open"] = False
                if not timed_out:  # a fired event must not be cancelled
                    self.sim.cancel(timer)
                on_reply(reply)

        timer = self.sim.schedule(self.peer_timeout,
                                  lambda: answer(None, timed_out=True))
        if dst == src:
            self.frames.append((self.sim.now, src, dst, label, "local"))
            node.serve(message, answer)
            return
        if self._dropped(src, dst, kind) or not node.up:
            self.frames.append((self.sim.now, src, dst, label, "lost"))
            return
        self.frames.append((self.sim.now, src, dst, label, "sent"))
        dst_epoch = node.epoch

        def respond(reply: Optional[dict]) -> None:
            if reply is None or self._dropped(dst, src, reply.get("kind")):
                return
            reply = json.loads(json.dumps(reply))
            self.sim.schedule(self.latency, lambda: answer(reply))

        def deliver() -> None:
            if node.up and node.epoch == dst_epoch:
                node.serve(message, respond)

        self.sim.schedule(self.latency, deliver)

    # -- driving ---------------------------------------------------------
    def submit(self, site: int, op: str, key: str, value: Any = None,
               on_reply: Optional[Respond] = None) -> dict:
        """Send a client operation to *site*; the returned dict gets the
        reply under ``"reply"`` when the operation ends, and *on_reply*
        is called with it."""
        box: dict = {}

        def done(reply: Optional[dict]) -> None:
            box["reply"] = reply
            if on_reply is not None:
                on_reply(reply)

        self.nodes[site].client({"kind": op, "key": key, "value": value},
                                done)
        return box

    def call(self, site: int, op: str, key: str, value: Any = None,
             within: float = 10.0) -> Optional[dict]:
        """Run a client operation to its reply (``None`` if *site* died
        first or it took longer than *within* simulated seconds)."""
        box = self.submit(site, op, key, value)
        self.run_until(lambda: "reply" in box, within)
        return box.get("reply")

    def drive(self, site: int, steps: Any, within: float = 10.0) -> Any:
        """Run one generator of *site*'s machine to its result."""
        box: dict = {}
        self.nodes[site].run(lambda: steps,
                             lambda result: box.update(result=result))
        self.run_until(lambda: "result" in box, within)
        return box["result"]

    def run_until(self, done: Callable[[], bool], within: float) -> None:
        deadline = self.sim.now + within
        while not done() and self.sim.pending \
                and self.sim.now < deadline:
            self.sim.step()

    def settle(self, seconds: float) -> None:
        """Let *seconds* of simulated time pass."""
        self.sim.run(until=self.sim.now + seconds)

    def close(self) -> None:
        for node in self.nodes.values():
            if node.up:
                node.crash()
