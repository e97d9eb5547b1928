"""The always-on runtime safety monitor.

:class:`InvariantMonitor` is a *forwarding trace sink*: the chaos
harness interposes it between the tracer and the real sink, so every
structured record a protocol or site actor emits flows through the
monitor on its way to storage.  The monitor maintains a shadow model of
what the records imply — last committed ``(o, v)`` per replica, the
commit history per operation number, the last granted quorum, the
current up-set — and fails fast with a structured
:class:`InvariantViolation` the moment a record contradicts the
protocols' safety story:

* **non-monotone-state** — a replica's committed ``(o, v)`` moved
  backwards;
* **divergent-commit** — two different ``(v, P)`` bodies committed
  under one operation number (mutual exclusion was broken: two quorums
  ran the same operation);
* **quorum-escape** — a commit's partition-set members were not all
  inside the quorum that granted it;
* **carried-partitioned-vote** — a topological protocol claimed the
  vote of a site that is partitioned (up, in a *different* block than
  the claimants), not down.  A claimed site that is up in the *same*
  block is fine: its reply was merely lost, and being on the quorum's
  side of every partition it can never arm a rival quorum;
* **quorum-exclusion** — the active probe (:func:`check_exclusion`)
  found two disjoint partition blocks whose access would both be
  granted *right now*.

A violation carries the chaos seed, the step index, and the serialised
schedule, so ``repro chaos replay --seed N`` reproduces the offending
run deterministically.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Optional

from repro.core.rounds import decide
from repro.errors import ReproError
from repro.net.views import NetworkView
from repro.obs.tracer import NullSink, TraceRecord
from repro.replica.state import ReplicaSet

__all__ = ["InvariantMonitor", "InvariantViolation", "check_exclusion"]


class InvariantViolation(ReproError):
    """A protocol safety invariant observably failed.

    Attributes:
        invariant: Short identifier (``"quorum-exclusion"`` etc.).
        detail: Human-readable account of the offending evidence.
        policy: Protocol under test, when known.
        seed: Chaos seed of the run, when known.
        step: Schedule step index at the time of the violation.
        record: The offending trace record's dictionary form, if one
            record is to blame.
        schedule: The serialised chaos schedule (replay material).
    """

    def __init__(
        self,
        invariant: str,
        detail: str,
        policy: Optional[str] = None,
        seed: Optional[int] = None,
        step: Optional[int] = None,
        record: Optional[dict] = None,
        schedule: Optional[dict] = None,
    ):
        self.invariant = invariant
        self.detail = detail
        self.policy = policy
        self.seed = seed
        self.step = step
        self.record = record
        self.schedule = schedule
        context = []
        if policy is not None:
            context.append(f"policy={policy}")
        if seed is not None:
            context.append(f"seed={seed}")
        if step is not None:
            context.append(f"step={step}")
        suffix = f" [{' '.join(context)}]" if context else ""
        super().__init__(f"invariant {invariant} violated: {detail}{suffix}")

    def to_dict(self) -> dict:
        """A JSON-serialisable violation report."""
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "policy": self.policy,
            "seed": self.seed,
            "step": self.step,
            "record": self.record,
            "schedule": self.schedule,
        }


def _as_set(value: Any) -> frozenset[int]:
    if value is None:
        return frozenset()
    return frozenset(int(v) for v in value)


class InvariantMonitor:
    """Forwarding sink that checks every record against the invariants.

    Args:
        inner: The sink records are forwarded to (default: discard).
        policy: Protocol name, stamped onto violations.  ``"MCV"``
            disables the quorum-escape containment check — the static
            protocol's partition set is a fixed denominator, not the
            granted quorum.
        seed: Chaos seed, stamped onto violations.
        bus: A :class:`~repro.obs.live.bus.TelemetryBus` receiving an
            ``invariant.violation`` event the instant a check trips —
            before the exception unwinds — so live watchers see the
            callout in real time.  ``None`` (the default) costs
            nothing.
    """

    def __init__(self, inner: Any = None, policy: Optional[str] = None,
                 seed: Optional[int] = None, bus: Optional[Any] = None):
        self._inner = inner if inner is not None else NullSink()
        self._policy = policy
        self._seed = seed
        self._bus = bus
        self._check_containment = policy != "MCV"
        self._last_state: dict[int, tuple[int, int]] = {}
        self._commit_bodies: dict[int, tuple[int, frozenset[int]]] = {}
        self._last_grant: Optional[Mapping[str, Any]] = None
        self._up: Optional[frozenset[int]] = None
        self._blocks: tuple[frozenset[int], ...] = ()
        self.step_index: Optional[int] = None
        self.records_seen = 0
        self.commits_seen = 0

    # ------------------------------------------------------------------
    # harness feed
    # ------------------------------------------------------------------
    def note_step(self, index: int) -> None:
        """Advance the schedule-step cursor (violation context)."""
        self.step_index = index

    def note_network(self, up: Iterable[int],
                     blocks: Iterable[frozenset[int]] = ()) -> None:
        """Update the up-set and partition blocks (the carried-vote
        check needs liveness and connectivity, which no trace record
        carries)."""
        self._up = frozenset(up)
        self._blocks = tuple(frozenset(block) for block in blocks)

    # ------------------------------------------------------------------
    # sink protocol
    # ------------------------------------------------------------------
    def emit(self, record: TraceRecord) -> None:
        """Forward *record*, then check it.

        Forwarding happens first so the offending record is already in
        the trace when the violation aborts the run.
        """
        self._inner.emit(record)
        self.records_seen += 1
        kind = record.kind
        if kind == "quorum.granted":
            self._last_grant = dict(record.fields)
        elif kind == "site.commit":
            self._check_site_commit(record)
        elif kind == "commit.applied":
            self._check_commit_body(
                record,
                int(record.fields["operation"]),
                int(record.fields["version"]),
                _as_set(record.fields["members"]),
            )
        elif kind == "votes.carried":
            self._check_carried(record)

    def close(self) -> None:
        """Close the wrapped sink."""
        self._inner.close()

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def violation(self, invariant: str, detail: str,
                  record: Optional[TraceRecord] = None) -> None:
        """Record and raise an :class:`InvariantViolation`."""
        exc = InvariantViolation(
            invariant,
            detail,
            policy=self._policy,
            seed=self._seed,
            step=self.step_index,
            record=record.to_dict() if record is not None else None,
        )
        self._inner.emit(TraceRecord(
            seq=-1,
            kind="invariant.violation",
            time=None if self.step_index is None else float(self.step_index),
            fields={
                "invariant": invariant,
                "detail": detail,
                "policy": self._policy,
                "seed": self._seed,
                "step": self.step_index,
            },
        ))
        if self._bus is not None:
            self._bus.publish(
                "invariant.violation",
                invariant=invariant,
                detail=detail,
                policy=self._policy,
                seed=self._seed,
                step=self.step_index,
            )
        raise exc

    def _check_site_commit(self, record: TraceRecord) -> None:
        fields = record.fields
        site = int(fields["site"])
        operation = int(fields["operation"])
        version = int(fields["version"])
        members = _as_set(fields["partition_set"])
        previous = self._last_state.get(site)
        if previous is not None:
            prev_operation, prev_version = previous
            if operation < prev_operation or version < prev_version:
                self.violation(
                    "non-monotone-state",
                    f"site {site} moved from (o={prev_operation}, "
                    f"v={prev_version}) back to (o={operation}, "
                    f"v={version})",
                    record,
                )
        self._last_state[site] = (operation, version)
        self._check_commit_body(record, operation, version, members)

    def _check_commit_body(self, record: TraceRecord, operation: int,
                           version: int, members: frozenset[int]) -> None:
        self.commits_seen += 1
        body = (version, members)
        existing = self._commit_bodies.get(operation)
        if existing is None:
            self._commit_bodies[operation] = body
        elif existing != body:
            self.violation(
                "divergent-commit",
                f"operation {operation} committed twice with different "
                f"bodies: (v={existing[0]}, P={sorted(existing[1])}) vs "
                f"(v={version}, P={sorted(members)}) — two quorums ran "
                "the same operation",
                record,
            )
        if self._check_containment and self._last_grant is not None:
            quorum = _as_set(self._last_grant.get("reachable"))
            escaped = members - quorum
            if escaped:
                self.violation(
                    "quorum-escape",
                    f"commit of operation {operation} installed partition"
                    f"-set members {sorted(escaped)} outside the granting "
                    f"quorum {sorted(quorum)}",
                    record,
                )

    def _check_carried(self, record: TraceRecord) -> None:
        fields = record.fields
        if not fields.get("granted"):
            return
        if self._up is None:
            return
        carried = _as_set(fields.get("carried"))
        claimants = _as_set(fields.get("claimants"))
        partitioned = sorted(
            site
            for site in carried & self._up
            if not any(
                site in block and block & claimants
                for block in self._blocks
            )
        )
        if partitioned:
            self.violation(
                "carried-partitioned-vote",
                f"grant counted the votes of {partitioned}, which are up "
                "but partitioned away from the claimants — only votes of "
                "down or same-block sites may be carried",
                record,
            )


def check_exclusion(
    rules_factory: Callable[[ReplicaSet], Any],
    states: Mapping[int, tuple[int, int, frozenset[int]]],
    view: NetworkView,
    copy_sites: frozenset[int],
    monitor: Optional[InvariantMonitor] = None,
) -> tuple[frozenset[int], ...]:
    """The active mutual-exclusion probe.

    Runs the core decision (:func:`repro.core.rounds.decide`) over the
    actual per-site ``(o, v, P)`` triples in *every* partition block of
    *view*, and raises (via *monitor* when given) if two or more
    disjoint blocks would be granted simultaneously.  Returns the
    granting blocks otherwise (at most one for a safe protocol).
    """
    granting = tuple(
        block
        for block in view.blocks
        if block & copy_sites
        and decide(rules_factory, states, view, copy_sites, block)[1].granted
    )
    if len(granting) >= 2:
        detail = (
            "disjoint partition blocks "
            + " and ".join(str(sorted(block)) for block in granting)
            + " would both be granted an access right now"
        )
        if monitor is not None:
            monitor.violation("quorum-exclusion", detail)
        raise InvariantViolation("quorum-exclusion", detail)
    return granting
