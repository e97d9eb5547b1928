"""Every decision one replica makes, as a sans-IO state machine.

:class:`ReplicaMachine` owns one site's durable store and coordinator
lease.  It opens no socket, starts no task, reads no clock and draws no
random number: ``now`` and a client operation's lease ticket are passed
in.  :class:`~repro.service.replica.ReplicaServer` drives it over
asyncio and TCP; the test suite drives many on one simulated network.

:meth:`ReplicaMachine.handle` answers the peer frames.  A client
operation and a RECOVER round are generators that yield :class:`Send`
(the driver resumes them with ``{site: reply or None}``),
:data:`RELEASE` (free this site's own lease) and, when traced,
:class:`Trace` span records.  All rounds share one shape (Figures 1–3):
collect ``(o, v, P)`` under the lease, release and give up when a site
refused it, take the quorum decision, send COMMIT, release.
"""

from __future__ import annotations

from contextlib import nullcontext
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

__all__ = ["MAX_ROUNDS", "QUEUED", "RELEASE", "ReplicaMachine", "Send",
           "Trace"]

#: Quorum rounds one client operation may take before it is answered
#: ``contended``.
MAX_ROUNDS = 6

#: The reply to a ``state?`` now waiting in the lease queue.
QUEUED = None

#: ``(site, granted)``: queued ``state?`` requests to answer now.
Wakes = Tuple[Tuple[int, bool], ...]


class Send(NamedTuple):
    """Send each site in *messages* its frame, all at once (this site's
    own goes to its own :meth:`ReplicaMachine.handle`).  *stage* names
    a client round's ``"collect"``, ``"commit"`` or lease ``"queue"``
    exchange; *traced* exchanges get ``rpc.<kind>`` spans."""

    messages: Mapping[int, Mapping[str, Any]]
    stage: Optional[str] = None
    traced: bool = True


class Trace(NamedTuple):
    """``open`` a child span *name*, record event *name* on the open
    one, or ``finish`` it with status *name*."""

    action: str
    name: str
    fields: Mapping[str, Any]


#: Free this site's own lease; answer the waiters that wakes.
RELEASE = "release"

Effect = Union[Send, Trace, str]
Steps = Generator[Effect, Any, Any]
States = dict[int, Tuple[int, int, frozenset[int]]]


class _Collected(NamedTuple):
    states: States
    values: dict[Any, Any]
    busy: frozenset[int]
    replies: dict[int, dict[str, Any]]


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
    sets) are served in ``info``.
    """

    def __init__(
        self,
        site_id: int,
        copy_sites: frozenset[int],
        policy: str,
        store: DurableReplica,
        segments: Optional[Mapping[int, int]] = None,
        lease_s: float = 1.0,
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
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.counters = counters if counters is not None else {}
        self.recovery = recovery if recovery is not None else {}
        #: Yield :class:`Trace` effects (the driver records spans).
        self.traced = False

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
                return ({"kind": "ok", "site": self.site_id},
                        self.release(_site_field(message), now))
            if kind == "fetch":
                return self._on_fetch(message), ()
            if kind == "info":
                return self._on_info(), ()
        except (ProtocolError, WALCorruptionError, ServiceError,
                ConfigurationError) as exc:
            self._count("errors")
            return {"kind": "error", "reason": str(exc)}, ()
        return {"kind": "error", "reason": f"unknown kind {kind!r}"}, ()

    def _on_state(self, message: Mapping[str, Any],
                  now: float) -> tuple[Optional[dict[str, Any]], Wakes]:
        holder = _site_field(message)
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

    def _on_commit(self, message: Mapping[str, Any],
                   now: float) -> tuple[dict[str, Any], Wakes]:
        holder = _site_field(message)
        entry = message.get("entry")
        if not isinstance(entry, dict):
            return {"kind": "error", "reason": "commit without entry"}, ()
        operation = entry.get("operation", 0)
        if not isinstance(operation, int) or isinstance(operation, bool):
            raise ProtocolError(f"malformed operation number {operation!r}")
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
    # coordination
    # ------------------------------------------------------------------
    def client_op(self, op: str, key: Any, value: Any,
                  ticket: list[Any]) -> Steps:
        """Run quorum rounds for one client ``get``/``put`` until
        decided; returns the client's ``result`` frame.  Every round
        carries *ticket* (``[start time, site]``), so a requeued
        operation ages."""
        if key is None:
            return {"kind": "error", "reason": f"{op} needs a key"}
        self._count(f"rounds.{op}")
        refused = None
        for _ in range(MAX_ROUNDS):
            outcome = yield from self._client_round(
                op, str(key), value, ticket, refused)
            if isinstance(outcome, dict):
                return outcome
            refused = outcome
        self._count("contended")
        return {"kind": "result", "ok": False, "op": op,
                "outcome": "contended",
                "reason": "coordinator lease contention"}

    def _client_round(self, op: str, key: str, value: Any,
                      ticket: list[Any], queue_at: Optional[int]) -> Steps:
        """One state-collection + quorum + commit attempt.

        Returns a client response, or the site that refused the lease:
        the next round first queues there (holding no lease, so it may
        wait whatever its age) and starts once that site grants.
        Traced, the round is one ``quorum.round`` span.
        """
        if self.traced:
            yield Trace("open", "quorum.round", dict(
                op=op, policy=self.policy, coordinator=self.site_id))
        if queue_at is not None:
            yield Send({queue_at: {"kind": "state?", "ticket": ticket,
                                   "queue": True}}, "queue")
        got = yield from self._collect(key, ticket, "collect")
        if got.busy:
            if self.traced:
                yield Trace("finish", "busy", {})
            return min(got.busy)
        verdict, replica_set, protocol = yield from self._decide(
            got.states, timed=True)
        everyone = frozenset(got.states) - {self.site_id}
        if not verdict.granted:
            yield from self._release_leases(everyone)
            self._count("denied")
            if self.traced:
                yield Trace("finish", "denied", {"reason": verdict.reason})
            return {"kind": "result", "ok": False, "op": op,
                    "outcome": "denied", "reason": verdict.reason}
        if op == "get" and protocol is not None \
                and not protocol.commits_on_read:
            # Static protocols read without adjusting the quorum.
            yield from self._release_leases(everyone)
            if self.traced:
                yield Trace("finish", "ok", {})
            return self._read_result(verdict, got.values)
        kind = "write" if op == "put" else "read"
        plan = plan_commit(verdict, replica_set, kind, protocol=protocol)
        # The entry carries a write delta, so only recipients holding the
        # newest data may apply it (under MCV, S rather than all of R).
        targets = plan.recipients & verdict.newest
        entry = self.store.make_entry(
            kind, plan.operation, plan.version, plan.partition_set,
            writes={key: value} if op == "put" else None,
            coordinator=self.site_id,
        )
        acks = yield Send({site: {"kind": "commit", "entry": entry}
                           for site in sorted(targets)}, "commit")
        yield from self._release_leases(everyone - targets)
        committed = frozenset(site for site, reply in acks.items()
                              if (reply or {}).get("kind") == "ok")
        if self.traced:
            yield Trace("event", "commit.broadcast", dict(
                partition_set=sorted(plan.partition_set),
                acked=sorted(committed), operation=plan.operation))
        if 2 * len(committed) <= len(targets):
            # The commit may or may not survive the next quorum round;
            # the client must treat the operation as unresolved.
            self._count("commit.minority")
            if self.traced:
                yield Trace("finish", "unavailable",
                            {"reason": "minority commit"})
            return {"kind": "result", "ok": False, "op": op,
                    "outcome": "unavailable",
                    "reason": (
                        f"commit acked by {sorted(committed)} only "
                        f"(needed a majority of {sorted(targets)})"
                    )}
        self._count(f"granted.{op}")
        if self.traced:
            yield Trace("finish", "ok", {})
        if op == "get":
            return self._read_result(verdict, got.values)
        return {"kind": "result", "ok": True, "op": op,
                "version": plan.version, "operation": plan.operation,
                "site": self.site_id}

    def _read_result(self, verdict: Any,
                     values: Mapping[Any, Any]) -> dict[str, Any]:
        source = min(verdict.newest)
        return {"kind": "result", "ok": True, "op": "get",
                "value": values.get(source),
                "version": values.get(("version", source)),
                "site": self.site_id, "source": source}

    def _collect(self, key: Optional[str], ticket: Optional[list[Any]],
                 stage: Optional[str] = None) -> Steps:
        """Ask every copy site for its ``(o, v, P)`` (and *key*'s value).

        When a site refused the lease the round must end, so two
        coordinators never interleave commits: every lease this round
        took is released before returning.  Without a *ticket* no site
        makes the request wait.
        """
        message: dict[str, Any] = {"kind": "state?"}
        if key is not None:
            message["key"] = key
        if ticket is not None:
            message["ticket"] = ticket
        raw = yield Send({site: message for site in sorted(self.copy_sites)},
                         stage)
        states: States = {}
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
        if self.traced:
            yield Trace("event", "state.collect", dict(
                responders=sorted(states),
                silent=sorted(self.copy_sites - frozenset(states)),
                busy=sorted(busy)))
        if busy:
            yield from self._release_leases(frozenset(states) - {self.site_id})
        return _Collected(states, values, frozenset(busy), replies)

    def _decide(self, states: States, timed: bool = False) -> Steps:
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
                newest=sorted(verdict.newest)))
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
        replaced.
        """
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
