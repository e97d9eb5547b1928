"""Every decision one replica makes, as a sans-IO state machine.

:class:`ReplicaMachine` owns one site's durable store and coordinator
lease.  It opens no socket, starts no task, reads no clock and draws no
random number: ``now`` and a client operation's lease ticket are passed
in.  :class:`~repro.service.replica.ReplicaServer` drives it over
asyncio and TCP; the test suite drives many on one simulated network.

:meth:`ReplicaMachine.handle` answers the peer frames.  A client
operation is either forwarded (:meth:`ReplicaMachine.forward_to`: once,
to the coordinator whose client round holds this site's lease, or
whose pipeline just released it) or queued
(:meth:`ReplicaMachine.submit`).  :meth:`ReplicaMachine.pipeline` runs
the queue and :meth:`ReplicaMachine.recover_round` one RECOVER round.
Both are generators that yield :class:`Send` (the driver resumes them
with ``{site: reply or None}``), :data:`RELEASE` (free this site's own
lease), :class:`Reply` (answer one queued operation) and, when traced,
:class:`Trace` span records.  All rounds share one
shape (Figures 1–3): collect ``(o, v, P)`` under the lease, release and
give up when a site refused it, take the quorum decision, send COMMIT,
release.  In the pipeline an operation's COMMIT also carries the next
queued operation's ``state?`` (``then``), so that operation's collect
costs no exchange of its own.
"""

from __future__ import annotations

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
from repro.service.quorum import evaluate_round, plan_commit
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
    spans of client operation *op* (``None``: the round's own)."""

    messages: Mapping[int, Mapping[str, Any]]
    stage: Optional[str] = None
    traced: bool = True
    op: Any = None


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
Replies = Mapping[int, Optional[Mapping[str, Any]]]


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


class _Ended(NamedTuple):
    """How one client round ended: the client's reply or the site that
    refused the lease; the next operation's ``state?`` answers when the
    COMMIT carried them; whether a site reported that it refused or
    queued another coordinator meanwhile."""

    outcome: Union[dict[str, Any], int]
    then: Optional[Replies] = None
    contested: bool = False


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
    restart verification, whose ``reinserted`` fields a RECOVER round
    sets) are served in ``info``.  For *follow_s* after a coordinator's
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
        #: pipeline ends at its next plain COMMIT, so the round can run.
        self.recover_due = False
        self._queue: deque[_Op] = deque()
        #: Sites whose lease the running round may hold.
        self._held: frozenset[int] = frozenset()
        #: ``(coordinator, until)`` after its ``pipelined`` frame here.
        self._follow: Optional[tuple[int, float]] = None

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    # ------------------------------------------------------------------
    # peer frames
    # ------------------------------------------------------------------
    def handle(self, message: Mapping[str, Any],
               now: float) -> tuple[Optional[dict[str, Any]], Wakes]:
        """Answer one peer frame at time *now*: ``(reply, wakes)``.

        A malformed frame, or one the store refuses, is answered
        ``error`` and changes nothing.  A ``commit`` or ``release`` may
        carry ``then``, the sender's next ``state?``: it is answered
        right after, as the next frame on the link would be, and the
        reply carries that answer under ``then``.  It never waits: when
        the release handed the lease to a queued request, it is
        ``busy``.
        """
        reply, wakes = self._handle(message, now)
        then = message.get("then")
        if message.get("kind") in ("commit", "release") \
                and isinstance(then, dict):
            answer, more = self._handle(
                {**then, "kind": "state?", "from": message.get("from", 0)},
                now, wait=False)
            reply = dict(reply, then=answer)  # type: ignore[arg-type]
            wakes += more
        return reply, wakes

    def _handle(self, message: Mapping[str, Any], now: float,
                wait: bool = True) -> tuple[Optional[dict[str, Any]], Wakes]:
        kind = message.get("kind")
        try:
            if kind == "ping":
                return {"kind": "pong", "site": self.site_id}, ()
            if kind == "state?":
                return self._on_state(message, now, wait)
            if kind == "commit":
                return self._on_commit(message, now)
            if kind == "release":
                holder = _site_field(message)
                self._followed(message, holder, now)
                return ({"kind": "ok", "site": self.site_id,
                         **self._contested(holder)},
                        self.release(holder, now))
            if kind == "fetch":
                return self._on_fetch(message), ()
            if kind == "info":
                return self._on_info(), ()
        except SERVICE_ERRORS as exc:
            self._count("errors")
            return {"kind": "error", "reason": str(exc)}, ()
        return {"kind": "error", "reason": f"unknown kind {kind!r}"}, ()

    def _on_state(self, message: Mapping[str, Any], now: float,
                  wait: bool) -> tuple[Optional[dict[str, Any]], Wakes]:
        holder = _site_field(message)
        # A queued request from the same site is superseded: refuse it.
        wakes: Wakes = ((holder, False),) \
            if holder in self.leases.waiting else ()
        decision = self.leases.request(
            holder, as_ticket(message.get("ticket")), now,
            empty_handed=bool(message.get("queue")))
        if decision == WAIT and not wait:
            self.leases.withdraw(holder)
        elif decision == WAIT:
            self.metrics.counter("replica.lease.queued").inc()
            return QUEUED, wakes
        return self.answer_state(message, decision == GRANT), wakes

    def answer_state(self, message: Mapping[str, Any],
                     granted: bool) -> dict[str, Any]:
        """The reply to a ``state?``: this site's ``(o, v, P)`` (and the
        asked key's value) when *granted* the lease, else ``busy``."""
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

    def _contested(self, holder: int) -> dict[str, Any]:
        """``{"contested": true}`` when *holder* holds the lease and
        another request was refused or queued meanwhile."""
        if self.leases.holder == holder and self.leases.contested:
            return {"contested": True}
        return {}

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
                     "operation": self.store.state.operation,
                     **self._contested(holder)},
                    self.release(holder, now))
        self.store.commit(entry)
        self._count("commits")
        return ({"kind": "ok", "site": self.site_id,
                 "operation": self.store.state.operation,
                 **self._contested(holder)},
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
        lease at most :attr:`follow_s` ago and holds it (a RECOVER
        round's grant has no ticket; a round that holds a lease longer
        is stuck on a silent site, or dead), or released it at most
        :attr:`follow_s` ago with ``pipelined`` (that coordinator had
        operations waiting behind each other).  The coordinator runs it
        in its pipeline, instead of this site contending for the same
        leases.  A forwarded operation (``forwarded: true``) is never
        forwarded again, and its forwarder never runs it itself.
        """
        leases = self.leases
        if leases.holder is not None:
            granted = leases.expires - leases.duration
            holder = leases.holder if leases.ticket is not None \
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
        """Run the queued client operations in order, one quorum round at
        a time (each at most :data:`MAX_ROUNDS`), until none is left.

        When another operation is queued behind the one about to
        commit and every copy site answered the round, that COMMIT
        carries the next one's ``state?`` as ``then``: every site gets
        ``commit`` or ``release`` with ``then``.  The pipeline commits
        plainly and releases when the queue is empty, when a site was
        silent, when :attr:`recover_due`, or after a site reported that
        it refused or queued another coordinator meanwhile, so whenever
        anyone else wants a lease it is free between rounds; with
        :attr:`recover_due` it also returns.  A round that raises
        releases every lease it may hold and answers every queued
        operation ``error``.
        """
        then: Optional[Replies] = None
        contested = False
        while self._queue and (then is not None or not self.recover_due):
            op = self._queue[0]
            if not op.rounds:
                self._count(f"rounds.{op.op}")
            op.rounds += 1
            try:
                ended = yield from self._client_round(op, then, not contested)
            except Exception as exc:
                yield from self._abort(op, exc)
                if isinstance(exc, SERVICE_ERRORS):
                    return
                raise
            then, contested = ended.then, ended.contested
            if isinstance(ended.outcome, dict):
                self._queue.popleft()
                yield Reply(op.op_id, ended.outcome)
            elif op.rounds == MAX_ROUNDS:
                self._queue.popleft()
                self._count("contended")
                yield Reply(op.op_id, {
                    "kind": "result", "ok": False, "op": op.op,
                    "outcome": "contended",
                    "reason": "coordinator lease contention"})
            else:
                op.queue_at = ended.outcome

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

    def _state_request(self, op: _Op) -> dict[str, Any]:
        return {"kind": "state?", "key": op.key, "ticket": op.ticket}

    def _client_round(self, op: _Op, then: Optional[Replies],
                      fuse: bool) -> Steps:
        """One state-collection + quorum + commit attempt for *op*.

        *then* holds the answers to its ``state?`` when the previous
        COMMIT carried them; otherwise the round collects first, after
        queueing (holding no lease, so it may wait whatever its age) at
        the site that refused the last one.  With *fuse* the COMMIT
        carries the next queued operation's ``state?``.  Traced, the
        round is one ``quorum.round`` span.
        """
        tag = op.op_id
        if self.traced:
            yield Trace("open", "quorum.round", dict(
                op=op.op, policy=self.policy, coordinator=self.site_id,
                fused=then is not None), tag)
        if then is not None:
            got = yield from self._collected(then, tag)
        else:
            if op.queue_at is not None:
                yield Send({op.queue_at: dict(self._state_request(op),
                                              queue=True)}, "queue", op=tag)
            got = yield from self._collect(op.key, op.ticket, "collect", tag)
        if got.busy:
            if self.traced:
                yield Trace("finish", "busy", {}, tag)
            return _Ended(min(got.busy))
        verdict, replica_set, protocol = yield from self._decide(
            got.states, timed=True, op=tag)
        everyone = frozenset(got.states) - {self.site_id}
        if not verdict.granted:
            yield from self._release_leases(everyone)
            self._count("denied")
            if self.traced:
                yield Trace("finish", "denied", {"reason": verdict.reason},
                            tag)
            return _Ended({"kind": "result", "ok": False, "op": op.op,
                           "outcome": "denied", "reason": verdict.reason})
        if op.op == "probe":
            yield from self._release_leases(everyone)
            if self.traced:
                yield Trace("finish", "unavailable", {}, tag)
            return _Ended({"kind": "result", "ok": False, "op": op.op,
                           "outcome": "unavailable",
                           "reason": "forward to the coordinator failed"})
        if op.op == "get" and protocol is not None \
                and not protocol.commits_on_read:
            # Static protocols read without adjusting the quorum.
            yield from self._release_leases(everyone)
            if self.traced:
                yield Trace("finish", "ok", {}, tag)
            return _Ended(self._read_result(verdict, got.values))
        kind = "write" if op.op == "put" else "read"
        plan = plan_commit(verdict, replica_set, kind, protocol=protocol)
        # The entry carries a write delta, so only recipients holding the
        # newest data may apply it (under MCV, S rather than all of R).
        targets = plan.recipients & verdict.newest
        # A round every copy site answered may carry the next queued
        # operation's state? on its COMMIT (a site silent now would hold
        # the acknowledgement back by a peer time-out).
        following = self._queue[1] if fuse and len(self._queue) > 1 \
            and not self.recover_due and len(got.states) == \
            len(self.copy_sites) else None
        # Tells the sites this coordinator has operations waiting behind
        # each other and hears from every site, so they forward theirs
        # here (forward_to).
        pipelined = {"pipelined": True} if (op.waited or following) \
            and len(got.states) == len(self.copy_sites) else {}
        commit = {"kind": "commit", **pipelined,
                  "entry": self.store.make_entry(
                      kind, plan.operation, plan.version, plan.partition_set,
                      writes={op.key: op.value} if op.op == "put" else None,
                      coordinator=self.site_id)}
        fused: Optional[Replies] = None
        if following is None:
            acks = yield Send({site: commit for site in sorted(targets)},
                              "commit", op=tag)
            yield from self._release_leases(everyone - targets)
        else:
            ask = self._state_request(following)
            self._count("rounds.fused")
            acks = yield Send({
                site: dict(commit, then=ask) if site in targets
                else {"kind": "release", "then": ask, **pipelined}
                for site in sorted(got.states)}, "commit", op=tag)
            fused = {site: (reply or {}).get("then")
                     for site, reply in acks.items()}
            self._held |= frozenset(
                site for site, reply in fused.items()
                if (reply or {}).get("kind") == "state")
        contested = any((reply or {}).get("contested")
                        for reply in acks.values())
        committed = frozenset(site for site in targets
                              if (acks.get(site) or {}).get("kind") == "ok")
        if self.traced:
            yield Trace("event", "commit.broadcast", dict(
                partition_set=sorted(plan.partition_set),
                acked=sorted(committed), operation=plan.operation,
                fused=following is not None), tag)
        if 2 * len(committed) <= len(targets):
            # The commit may or may not survive the next quorum round;
            # the client must treat the operation as unresolved.
            self._count("commit.minority")
            if self.traced:
                yield Trace("finish", "unavailable",
                            {"reason": "minority commit"}, tag)
            return _Ended({"kind": "result", "ok": False, "op": op.op,
                           "outcome": "unavailable",
                           "reason": (
                               f"commit acked by {sorted(committed)} only "
                               f"(needed a majority of {sorted(targets)})"
                           )}, fused, contested)
        self._count(f"granted.{op.op}")
        if self.traced:
            yield Trace("finish", "ok", {}, tag)
        if op.op == "get":
            return _Ended(self._read_result(verdict, got.values), fused,
                          contested)
        return _Ended({"kind": "result", "ok": True, "op": op.op,
                       "version": plan.version, "operation": plan.operation,
                       "site": self.site_id}, fused, contested)

    def _read_result(self, verdict: Any,
                     values: Mapping[Any, Any]) -> dict[str, Any]:
        source = min(verdict.newest)
        return {"kind": "result", "ok": True, "op": "get",
                "value": values.get(source),
                "version": values.get(("version", source)),
                "site": self.site_id, "source": source}

    def _collect(self, key: Optional[str], ticket: Optional[list[Any]],
                 stage: Optional[str] = None, op: Any = None) -> Steps:
        """Ask every copy site for its ``(o, v, P)`` (and *key*'s value);
        :meth:`_collected` reads the answers.  Without a *ticket* no
        site makes the request wait."""
        message: dict[str, Any] = {"kind": "state?"}
        if key is not None:
            message["key"] = key
        if ticket is not None:
            message["ticket"] = ticket
        self._held = frozenset()
        raw = yield Send({site: message for site in sorted(self.copy_sites)},
                         stage, op=op)
        return (yield from self._collected(raw, op))

    def _collected(self, raw: Replies, op: Any = None) -> Steps:
        """Read one round's ``state?`` answers.

        When a site refused the lease the round must end, so two
        coordinators never interleave commits: every lease this round
        took is released before returning.
        """
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
                values[("version", site)] = int(reply["version"])
        self._held |= frozenset(states)
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

    def _release_leases(self, sites: frozenset[int]) -> Steps:
        yield RELEASE
        if sites:
            yield Send({site: {"kind": "release"} for site in sorted(sites)},
                       traced=False)

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
        got = yield from self._collect(None, None)
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
