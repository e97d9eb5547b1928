"""Every decision one replica makes, as a sans-IO state machine.

:class:`ReplicaMachine` owns one site's durable store and coordinator
lease.  It opens no socket, starts no task, reads no clock and draws no
random number: ``now`` and a client operation's lease ticket are passed
in.  :class:`~repro.service.replica.ReplicaServer` drives it over
asyncio and TCP; the test suite drives many on one simulated network.

:meth:`ReplicaMachine.handle` answers the peer frames.  A client
operation is either forwarded (:meth:`ReplicaMachine.forward_to`: once,
to the coordinator whose client round holds this site's lease, or
whose ``pipelined`` COMMIT just released it) or queued
(:meth:`ReplicaMachine.submit`).  :meth:`ReplicaMachine.pipeline` runs
the queue and :meth:`ReplicaMachine.recover_round` one RECOVER round.
Both are generators that yield :class:`Send` (the driver resumes them
with ``{site: reply or None}``), :data:`RELEASE` (free this site's own
lease), :class:`Reply` (answer one queued operation) and, when traced,
:class:`Trace` span records.  All rounds share one
shape (Figures 1–3): collect ``(o, v, P)`` under the lease, release and
give up when a site refused it, take the quorum decision, send COMMIT,
release.  A granted client round answers a batch: its own operation and
the ``get``/``put`` queued behind it, under one COMMIT (group commit).
A ``get`` first runs a lease-free peek, which answers it alone when the
read's COMMIT would change nothing but ``o`` (one-round read).
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Generator, Mapping, NamedTuple, Optional, Tuple, \
    Union

from repro.core.rounds import repair_targets, rollback_source
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ServiceError,
    WALCorruptionError,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.lease import GRANT, WAIT, LeaseTable, as_ticket
from repro.service.quorum import evaluate_round, one_round_read, \
    plan_commit
from repro.service.store import DurableReplica

__all__ = ["MAX_ROUNDS", "QUEUED", "RELEASE",
           "ReplicaMachine", "Reply", "Send", "Trace"]

#: Quorum rounds one client operation may take before it is answered
#: ``contended``.
MAX_ROUNDS = 6

#: The reply to a ``state?`` now waiting in the lease queue.
QUEUED = None

#: ``(site, granted)``: queued ``state?`` requests to answer now.
Wakes = Tuple[Tuple[int, bool], ...]

#: What a refused frame or a failed round is answered ``error`` for.
SERVICE_ERRORS = (ProtocolError, WALCorruptionError, ServiceError,
                  ConfigurationError)


class Send(NamedTuple):
    """Send each site in *messages* its frame, all at once (this site's
    own goes to its own :meth:`ReplicaMachine.handle`).  *stage* names
    a client round's ``"collect"``, ``"commit"`` or lease ``"queue"``
    exchange; *traced* exchanges get ``rpc.<kind>`` spans under the
    spans of client operation *op* (``None``: the round's own); a
    ``"commit"`` answers *ops* client operations."""

    messages: Mapping[int, Mapping[str, Any]]
    stage: Optional[str] = None
    traced: bool = True
    op: Any = None
    ops: int = 1


class Trace(NamedTuple):
    """``open`` a child span *name*, record event *name* on the open
    one, or ``finish`` it with status *name*; among the spans of client
    operation *op* (``None``: the round's own)."""

    action: str
    name: str
    fields: Mapping[str, Any]
    op: Any = None


class Reply(NamedTuple):
    """Answer queued client operation *op_id* with *result*."""

    op_id: Any
    result: dict[str, Any]


#: Free this site's own lease; answer the waiters that wakes.
RELEASE = "release"

Effect = Union[Send, Trace, Reply, str]
Steps = Generator[Effect, Any, Any]
States = dict[int, Tuple[int, int, frozenset[int]]]


class _Collected(NamedTuple):
    states: States
    values: dict[Any, Any]
    busy: frozenset[int]
    replies: dict[int, dict[str, Any]]


@dataclass
class _Op:
    """One queued client operation."""

    op_id: Any
    op: str
    key: str
    value: Any
    ticket: list[Any]
    #: It was queued behind another operation.
    waited: bool = False
    rounds: int = 0
    #: The site that refused the last round: the next one queues there.
    queue_at: Optional[int] = None


def _site_field(message: Mapping[str, Any]) -> int:
    """The sender's site (``from``, 0 when absent).

    Raises:
        ProtocolError: if it is not an integer.
    """
    site = message.get("from", 0)
    if not isinstance(site, int) or isinstance(site, bool):
        raise ProtocolError(f"malformed 'from' field {site!r}")
    return site


class ReplicaMachine:
    """One replica's decisions: peer frames, lease, rounds, orphan rules.

    *copy_sites* includes this site; *counters* and *recovery* (the
    restart verification: its ``had_state`` says the site restarted
    over old files, and a RECOVER round sets its ``reinserted``
    fields) are served in ``info``.  For *follow_s* after a coordinator's
    ``pipelined`` frame, client operations are forwarded to it (the
    drivers pass the lease-wait bound, an eighth of the peer time-out).
    """

    def __init__(
        self,
        site_id: int,
        copy_sites: frozenset[int],
        policy: str,
        store: DurableReplica,
        segments: Optional[Mapping[int, int]] = None,
        lease_s: float = 1.0,
        follow_s: float = 0.075,
        metrics: Optional[MetricsRegistry] = None,
        counters: Optional[dict[str, int]] = None,
        recovery: Optional[dict[str, Any]] = None,
    ):
        self.site_id = site_id
        self.copy_sites = frozenset(copy_sites)
        self.policy = policy
        self.store = store
        self.segments = segments
        self.leases = LeaseTable(lease_s)
        self.follow_s = follow_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.counters = counters if counters is not None else {}
        self.recovery = recovery if recovery is not None else {}
        #: Yield :class:`Trace` effects (the driver records spans).
        self.traced = False
        #: Set by the driver when this site's RECOVER timer fired: the
        #: pipeline returns after its current round, so RECOVER can run.
        self.recover_due = False
        self._queue: deque[_Op] = deque()
        #: Sites whose lease the running round may hold.
        self._held: frozenset[int] = frozenset()
        #: ``(coordinator, until)`` after its ``pipelined`` frame here.
        self._follow: Optional[tuple[int, float]] = None
        #: Sites whose last ``state?`` here came from a RECOVER round.
        self._recovering: set[int] = set()

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    # ------------------------------------------------------------------
    # peer frames
    # ------------------------------------------------------------------
    def handle(self, message: Mapping[str, Any],
               now: float) -> tuple[Optional[dict[str, Any]], Wakes]:
        """Answer one peer frame at time *now*: ``(reply, wakes)``.

        A malformed frame, or one the store refuses, is answered
        ``error`` and changes nothing.
        """
        kind = message.get("kind")
        try:
            if kind == "ping":
                return {"kind": "pong", "site": self.site_id}, ()
            if kind == "state?":
                return self._on_state(message, now)
            if kind == "commit":
                return self._on_commit(message, now)
            if kind == "release":
                holder = _site_field(message)
                self._followed(message, holder, now)
                return ({"kind": "ok", "site": self.site_id},
                        self.release(holder, now))
            if kind == "fetch":
                return self._on_fetch(message), ()
            if kind == "info":
                return self._on_info(), ()
        except SERVICE_ERRORS as exc:
            self._count("errors")
            return {"kind": "error", "reason": str(exc)}, ()
        return {"kind": "error", "reason": f"unknown kind {kind!r}"}, ()

    def _on_state(self, message: Mapping[str, Any],
                  now: float) -> tuple[Optional[dict[str, Any]], Wakes]:
        if message.get("peek"):
            # Takes, refreshes and queues for no lease; changes nothing.
            return self.answer_state(message, True), ()
        holder = _site_field(message)
        # Only a client round's state? names a key.
        if message.get("key") is None:
            self._recovering.add(holder)
        else:
            self._recovering.discard(holder)
        # A queued request from the same site is superseded: refuse it.
        wakes: Wakes = ((holder, False),) \
            if holder in self.leases.waiting else ()
        decision = self.leases.request(
            holder, as_ticket(message.get("ticket")), now,
            empty_handed=bool(message.get("queue")))
        if decision == WAIT:
            self.metrics.counter("replica.lease.queued").inc()
            return QUEUED, wakes
        return self.answer_state(message, decision == GRANT), wakes

    def answer_state(self, message: Mapping[str, Any],
                     granted: bool) -> dict[str, Any]:
        """The reply to a ``state?``: this site's ``(o, v, P)`` (and the
        asked key's value) when *granted* the lease (or it is a
        ``peek``), else ``busy``."""
        if not granted:
            self._count("busy")
            self.metrics.counter("replica.lease.denied").inc()
            return {"kind": "busy", "site": self.site_id,
                    "holder": self.leases.holder}
        reply = {"kind": "state", **self.store.state.to_dict()}
        if self.store.latest is not None:  # what the orphan rules compare
            reply["last"] = self.store.latest
        key = message.get("key")
        if key is not None:
            reply["value"] = self.store.data.get(str(key))
        return reply

    def release(self, holder: int, now: float) -> Wakes:
        """Free *holder*'s lease here; the queued requests it answers."""
        released = self.leases.release(holder, now)
        wakes = tuple((site, False) for site in released.refused)
        if released.granted is not None:
            wakes += ((released.granted, True),)
        return wakes

    def _followed(self, message: Mapping[str, Any], holder: int,
                  now: float) -> None:
        self._follow = (holder, now + self.follow_s) \
            if message.get("pipelined") else None

    def _on_commit(self, message: Mapping[str, Any],
                   now: float) -> tuple[dict[str, Any], Wakes]:
        holder = _site_field(message)
        entry = message.get("entry")
        if not isinstance(entry, dict):
            return {"kind": "error", "reason": "commit without entry"}, ()
        operation = entry.get("operation", 0)
        if not isinstance(operation, int) or isinstance(operation, bool):
            raise ProtocolError(f"malformed operation number {operation!r}")
        self._followed(message, holder, now)
        if not self.store.accepts(operation):
            return ({"kind": "stale", "site": self.site_id,
                     "operation": self.store.state.operation},
                    self.release(holder, now))
        self.store.commit(entry)
        self._count("commits")
        return ({"kind": "ok", "site": self.site_id,
                 "operation": self.store.state.operation},
                self.release(holder, now))

    def _on_fetch(self, message: Mapping[str, Any]) -> dict[str, Any]:
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
        return {
            "kind": "info",
            "site": self.site_id,
            "policy": self.policy,
            **self.store.state.to_dict(),
            "applied_index": self.store.applied_index,
            "digest": self.store.digest(),
            "counters": dict(self.counters),
            "recovery": self.recovery,
        }

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def forward_to(self, message: Mapping[str, Any],
                   now: float) -> Optional[int]:
        """The coordinator to forward client operation *message* to, or
        ``None`` to run it here.

        It is forwarded, unless this site has operations of its own
        queued, to another site whose *client* round took this site's
        lease at most :attr:`follow_s` ago and holds it (never to a
        RECOVER round's holder, whose ``state?`` names no key; a round
        that holds a lease longer is stuck on a silent site, or dead),
        or released it at most :attr:`follow_s` ago with ``pipelined``
        (that coordinator had operations waiting behind each other).
        The coordinator runs it in its pipeline, instead of this site
        contending for the same leases.  A forwarded operation
        (``forwarded: true``) is never forwarded again, and its
        forwarder never runs it itself.
        """
        leases = self.leases
        if leases.holder is not None:
            granted = leases.expires - leases.duration
            holder = leases.holder \
                if leases.holder not in self._recovering \
                and now < granted + self.follow_s else None
        elif self._follow is not None and now < self._follow[1]:
            holder = self._follow[0]
        else:
            holder = None
        if (holder in (None, self.site_id) or message.get("forwarded")
                or self._queue):
            return None
        self._count("forwarded")
        return holder

    def relay(self, reply: Optional[Mapping[str, Any]]
              ) -> Optional[dict[str, Any]]:
        """The holder's *reply* to a forwarded client operation, or
        ``None`` when the forward failed or outlasted the peer time-out,
        like any peer request.  The operation may have run there, so
        this site never runs it: it submits a ``probe`` instead, which
        answers ``denied`` when this site cannot reach a quorum (what
        its own round would have said) and ``unavailable`` otherwise."""
        if reply is not None and reply.get("kind") in ("result", "error"):
            return dict(reply)
        self._count("forward.failed")
        return None

    def submit(self, op_id: Any, op: str, key: Any, value: Any,
               ticket: list[Any]) -> Optional[dict[str, Any]]:
        """Queue client ``get``/``put`` (or ``probe``, see :meth:`relay`)
        *op_id* for :meth:`pipeline`; ``None``, or its ``error`` reply
        when it cannot run.  Every round it takes carries *ticket*
        (``[start time, site]``), so a requeued operation ages."""
        if key is None:
            return {"kind": "error", "reason": f"{op} needs a key"}
        self._queue.append(_Op(op_id, op, str(key), value, ticket,
                               waited=bool(self._queue)))
        return None

    @property
    def queued(self) -> int:
        """Client operations waiting for :meth:`pipeline`."""
        return len(self._queue)

    def pipeline(self) -> Steps:
        """Run the queued client operations in order until none is left
        or :attr:`recover_due`.  Each round runs the first one (at most
        :data:`MAX_ROUNDS` rounds) and answers the batch its decision
        took (:meth:`_batch`) under one COMMIT, then releases every
        lease, so whenever anyone else wants one it is free between
        rounds.  A ``get``'s first round may be its peek alone
        (:meth:`_peek`).  A round that raises releases every lease it
        may hold and answers every queued operation ``error``.
        """
        while self._queue and not self.recover_due:
            op = self._queue[0]
            if not op.rounds:
                self._count(f"rounds.{op.op}")
            op.rounds += 1
            try:
                outcome = yield from self._client_round(op)
            except Exception as exc:
                yield from self._abort(op, exc)
                if isinstance(exc, SERVICE_ERRORS):
                    return
                raise
            if isinstance(outcome, list):
                for result in outcome:
                    yield Reply(self._queue.popleft().op_id, result)
            elif op.rounds == MAX_ROUNDS:
                self._queue.popleft()
                self._count("contended")
                yield Reply(op.op_id, {
                    "kind": "result", "ok": False, "op": op.op,
                    "outcome": "contended",
                    "reason": "coordinator lease contention"})
            else:
                op.queue_at = outcome

    def _abort(self, op: _Op, exc: Exception) -> Steps:
        """*op*'s round raised: free every lease the pipeline may hold
        and answer every queued operation ``error``."""
        self._count("errors")
        if self.traced:
            yield Trace("finish", "error", {"reason": str(exc)}, op.op_id)
        yield from self._release_leases(self._held - {self.site_id})
        self._held = frozenset()
        while self._queue:
            yield Reply(self._queue.popleft().op_id,
                        {"kind": "error", "reason": str(exc)})

    def _client_round(self, op: _Op) -> Steps:
        """One state-collection + quorum + commit attempt for *op*, the
        first queued operation, after queueing (holding no lease, so it
        may wait whatever its age) at the site that refused the last
        one.  Returns that site when one refused the lease, else the
        replies of the batch the round answered, in queue order.
        Traced, the round is one ``quorum.round`` span.  A ``get``'s
        first round starts with its peek, and when that falls back the
        collect asks only the sites that answered it.
        """
        tag = op.op_id
        asked = None
        if op.op == "get" and op.rounds == 1:
            peeked = yield from self._peek(op)
            if isinstance(peeked, dict):
                return [peeked]
            asked = peeked
        if self.traced:
            yield Trace("open", "quorum.round", dict(
                op=op.op, policy=self.policy, coordinator=self.site_id), tag)
        if op.queue_at is not None:
            yield Send({op.queue_at: {"kind": "state?", "key": op.key,
                                      "ticket": op.ticket, "queue": True}},
                       "queue", op=tag)
        got = yield from self._collect(op.key, op.ticket, "collect", tag,
                                       asked)
        if got.busy:
            if self.traced:
                yield Trace("finish", "busy", {}, tag)
            return min(got.busy)
        verdict, replica_set, protocol = yield from self._decide(
            got.states, timed=True, op=tag)
        everyone = frozenset(got.states) - {self.site_id}
        if not verdict.granted:
            yield from self._release_leases(everyone)
            self._count("denied")
            if self.traced:
                yield Trace("finish", "denied", {"reason": verdict.reason},
                            tag)
            return [{"kind": "result", "ok": False, "op": op.op,
                     "outcome": "denied", "reason": verdict.reason}]
        if op.op == "probe":
            yield from self._release_leases(everyone)
            if self.traced:
                yield Trace("finish", "unavailable", {}, tag)
            return [{"kind": "result", "ok": False, "op": op.op,
                     "outcome": "unavailable",
                     "reason": "forward to the coordinator failed"}]
        batch = self._batch(verdict)
        results = [self._read(member, verdict, got, member is op)
                   if member.op == "get" else None for member in batch]
        writes = {member.key: member.value for member in batch
                  if member.op == "put"}
        if not writes and protocol is not None \
                and not protocol.commits_on_read:
            # Static protocols read without adjusting the quorum.
            yield from self._release_leases(everyone)
            if self.traced:
                yield Trace("finish", "ok", {}, tag)
            return results
        kind = "write" if writes else "read"
        plan = plan_commit(verdict, replica_set, kind, protocol=protocol)
        # The entry carries a write delta, so only recipients holding the
        # newest data may apply it (under MCV, S rather than all of R).
        targets = plan.recipients & verdict.newest
        # Tells the sites this coordinator serves operations queued
        # behind each other and hears from every site, so they forward
        # theirs here (forward_to).
        pipelined = {"pipelined": True} if (op.waited or len(batch) > 1) \
            and len(got.states) == len(self.copy_sites) else {}
        commit = {"kind": "commit", **pipelined,
                  "entry": self.store.make_entry(
                      kind, plan.operation, plan.version, plan.partition_set,
                      writes=writes or None, coordinator=self.site_id)}
        if len(batch) > 1:
            self._count("rounds.batched")
            self.counters["batched.ops"] = \
                self.counters.get("batched.ops", 0) + len(batch)
        acks = yield Send({site: commit for site in sorted(targets)},
                          "commit", op=tag, ops=len(batch))
        yield from self._release_leases(everyone - targets, **pipelined)
        committed = frozenset(site for site in targets
                              if (acks.get(site) or {}).get("kind") == "ok")
        if self.traced:
            yield Trace("event", "commit.broadcast", dict(
                partition_set=sorted(plan.partition_set),
                acked=sorted(committed), operation=plan.operation,
                ops=len(batch)), tag)
            for member in batch[1:]:
                yield Trace("event", "quorum.batched", dict(
                    coordinator=self.site_id, operation=plan.operation),
                    member.op_id)
        if 2 * len(committed) <= len(targets):
            # The commit may or may not survive the next quorum round;
            # the clients must treat the operations as unresolved.
            self._count("commit.minority")
            if self.traced:
                yield Trace("finish", "unavailable",
                            {"reason": "minority commit"}, tag)
            return [{"kind": "result", "ok": False, "op": member.op,
                     "outcome": "unavailable",
                     "reason": (
                         f"commit acked by {sorted(committed)} only "
                         f"(needed a majority of {sorted(targets)})"
                     )} for member in batch]
        for member in batch:
            self._count(f"granted.{member.op}")
        if self.traced:
            yield Trace("finish", "ok", {}, tag)
        return [result or {"kind": "result", "ok": True, "op": "put",
                           "version": plan.version,
                           "operation": plan.operation, "site": self.site_id}
                for result in results]

    def _peek(self, op: _Op) -> Steps:
        """*op*'s lease-free ``state?`` peek at every copy site.  Returns
        the ``get``'s reply when :func:`~repro.service.quorum.
        one_round_read` holds over the replies (docs/CORRECTNESS.md
        §11), else the sites that answered.  Traced, the peek is one
        ``quorum.peek`` span."""
        tag = op.op_id
        if self.traced:
            yield Trace("open", "quorum.peek", dict(
                op=op.op, policy=self.policy, coordinator=self.site_id), tag)
        got = yield from self._collect(op.key, None, "collect", tag,
                                       peek=True)
        verdict, replica_set, protocol = yield from self._decide(
            got.states, timed=True, op=tag)
        lasts = {site: reply.get("last")
                 for site, reply in got.replies.items()}
        if not one_round_read(verdict, replica_set, protocol, got.states,
                              lasts):
            self._count("reads.peek.fallback")
            if self.traced:
                yield Trace("finish", "fallback", {}, tag)
            return frozenset(got.states)
        self._count("reads.peek")
        self._count("granted.get")
        if self.traced:
            yield Trace("finish", "ok", {}, tag)
        return self._read(op, verdict, got, True)

    def _batch(self, verdict: Any) -> list[_Op]:
        """What a granted round answers: the first queued operation,
        then each ``get``/``put`` behind it up to the first one whose key
        is already in the batch, or that is a ``probe``, or a ``get``
        this site's copy cannot answer (it is not among the newest)."""
        batch = [self._queue[0]]
        for op in itertools.islice(self._queue, 1, None):
            if op.op == "probe" or op.key in {m.key for m in batch} or (
                    op.op == "get" and self.site_id not in verdict.newest):
                break
            batch.append(op)
        return batch

    def _read(self, op: _Op, verdict: Any, got: _Collected,
              first: bool) -> dict[str, Any]:
        """A ``get``'s reply: the round's *first* operation reads the
        lowest newest site's collected value, one that joined reads this
        site's own copy (newest, holding the lease at a quorum)."""
        source = min(verdict.newest) if first else self.site_id
        return {"kind": "result", "ok": True, "op": "get",
                "value": got.values.get(source) if first
                else self.store.data.get(op.key),
                "version": got.states[source][1],
                "site": self.site_id, "source": source}

    def _collect(self, key: Optional[str], ticket: Optional[list[Any]],
                 stage: Optional[str] = None, op: Any = None,
                 sites: Optional[frozenset[int]] = None,
                 peek: bool = False) -> Steps:
        """Ask every copy site (or only *sites*) for its ``(o, v, P)``
        (and *key*'s value).  Without a *ticket* no site makes the
        request wait; a *peek* takes no lease at all.

        When a site refused the lease the round must end, so two
        coordinators never interleave commits: every lease this round
        took is released before returning.
        """
        message: dict[str, Any] = {"kind": "state?"}
        if key is not None:
            message["key"] = key
        if ticket is not None:
            message["ticket"] = ticket
        if peek:
            message["peek"] = True
        asked = self.copy_sites if sites is None else sites
        raw = yield Send({site: message for site in sorted(asked)},
                         stage, op=op)
        states: States = {}
        values: dict[Any, Any] = {}
        replies: dict[int, dict[str, Any]] = {}
        busy: set[int] = set()
        for site, reply in raw.items():
            reply = reply or {}
            kind = reply.get("kind")
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
            replies[site] = dict(reply)
            if "value" in reply:
                values[site] = reply["value"]
        if not peek:
            self._held = frozenset(states)
        if self.traced:
            yield Trace("event", "state.collect", dict(
                responders=sorted(states),
                silent=sorted(self.copy_sites - frozenset(states)),
                busy=sorted(busy)), op)
        if busy:
            yield from self._release_leases(frozenset(states) - {self.site_id})
        return _Collected(states, values, frozenset(busy), replies)

    def _decide(self, states: States, timed: bool = False,
                op: Any = None) -> Steps:
        """The paper's quorum test over one collected round; *timed*
        (a client round) records it as ``replica.round.evaluate``."""
        with self.metrics.timed("replica.round.evaluate.seconds") \
                if timed else nullcontext():
            decision = evaluate_round(self.policy, states, self.copy_sites,
                                      self.segments)
        verdict = decision[0]
        if self.traced:
            yield Trace("event", "quorum.evaluate", dict(
                granted=verdict.granted, reason=verdict.reason,
                current=sorted(verdict.current),
                newest=sorted(verdict.newest)), op)
        return decision

    def _release_leases(self, sites: frozenset[int], **mark: Any) -> Steps:
        yield RELEASE
        if sites:
            yield Send({site: {"kind": "release", **mark}
                        for site in sorted(sites)}, traced=False)

    # ------------------------------------------------------------------
    # RECOVER / anti-entropy
    # ------------------------------------------------------------------
    def recover_round(self) -> Steps:
        """One recover/anti-entropy round; returns its status.

        A stale replica reinserts itself (``COMMIT(S ∪ {l}, o_m+1, v_m,
        S ∪ {l})`` plus a data copy from the anchor); a current replica
        repairs any orphaned commit it is the max-``o`` holder of, and
        rolls back an orphan of its own that a rival body provably
        replaced.  A round that raises frees every lease it took first.
        """
        self.recover_due = False
        try:
            return (yield from self._recover())
        except Exception:
            yield from self._release_leases(self._held - {self.site_id})
            raise

    def _recover(self) -> Steps:
        # A site restarted over its old files may be stale, and stays so
        # until a RECOVER round reinserts it.  It asks with a ticket
        # older than any client operation's: it waits where a client
        # round holds the lease and refuses the next one there, so
        # rounds back to back cannot starve its reinsert.
        restarted = self.recovery.get("had_state") \
            and not self.recovery.get("reinserted")
        got = yield from self._collect(
            None, [0, self.site_id] if restarted else None)
        if got.busy:
            return "busy"
        others = frozenset(got.states) - {self.site_id}
        if (yield from self._rollback(got.replies)):
            yield from self._release_leases(others)
            return "rollback"
        verdict, replica_set, protocol = yield from self._decide(got.states)
        if not verdict.granted:
            yield from self._release_leases(others)
            yield from self._repair(got.states)
            return "denied"
        if self.site_id in verdict.current:
            yield from self._release_leases(others)
            self.recovery["reinserted"] = True
            return "current"
        # Stale: reinsert with a data copy from the newest anchor.
        plan = plan_commit(verdict, replica_set, "recover",
                           recovering_site=self.site_id, protocol=protocol)
        fetched = (yield Send({plan.anchor: {"kind": "fetch"}}))[plan.anchor]
        if fetched is None or fetched.get("kind") != "data":
            yield from self._release_leases(others)
            return "fetch-failed"
        entry = self.store.make_entry(
            "recover", plan.operation, plan.version, plan.partition_set,
            coordinator=self.site_id,
        )
        acks: dict[int, Optional[dict[str, Any]]] = {}
        for site in sorted(plan.recipients):  # one at a time, in order
            mine = dict(entry, data=dict(fetched["data"])) \
                if site == self.site_id else entry
            acks.update((yield Send({site: {"kind": "commit",
                                            "entry": mine}})))
        yield from self._release_leases(others - plan.recipients)
        if (acks.get(self.site_id) or {}).get("kind") != "ok":
            return "reinsert-failed"
        self._count("recovered")
        self.recovery["reinserted"] = True
        self.recovery["reinserted_operation"] = self.store.state.operation
        return "reinserted"

    def _rollback(self, replies: Mapping[int, Mapping[str, Any]]) -> Steps:
        """Discard an orphaned tail commit (crashed-coordinator victim).

        A SIGKILL in mid-broadcast can leave this replica holding a
        commit no other site ever saw, while the surviving majority
        committed a *different* body under the same number.  When
        :func:`~repro.core.rounds.rollback_source` proves the rival
        majority-committed, adopt the rival holder's full durable state
        (state, data *and* history) and let the normal RECOVER flow take
        it from there.  Returns whether a rollback happened.
        """
        if self.store.latest is None:
            return False
        source = rollback_source(self.site_id, self.store.latest, replies)
        if source is None:
            return False
        fetched = (yield Send({source: {"kind": "fetch", "history": True}},
                              traced=False))[source]
        if fetched is None or fetched.get("kind") != "data":
            return False
        self.store.install_remote(
            fetched["state"], fetched["data"], fetched.get("history", []))
        self._count("rollbacks")
        return True

    def _repair(self, states: States) -> Steps:
        """Re-broadcast an orphaned commit (crashed coordinator repair)
        to the members :func:`~repro.core.rounds.repair_targets` names.

        The payload installs the holder's full data map, so receivers
        skip no write deltas.
        """
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
        if self.traced:
            yield Trace("event", "commit.repair", dict(
                behind=sorted(behind), operation=state.operation))
        yield Send({site: {"kind": "commit", "entry": entry}
                    for site in sorted(behind)})
        self._count("repairs")
