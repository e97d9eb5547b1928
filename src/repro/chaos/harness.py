"""Running protocols under chaos, with the monitor always on.

The harness executes a :class:`~repro.chaos.schedule.ChaosSchedule`
against a message-passing cluster and keeps the
:class:`~repro.chaos.monitor.InvariantMonitor` interposed between the
tracer and the sink for the whole run:

* :class:`AuditedCluster` extends the engine's
  :class:`~repro.engine.actors.MessageCluster` with the two commit-time
  faults that need quorum context — the mid-operation *flap* crash
  (timed between state collection and COMMIT) and the *partial commit*
  (COMMIT delivered to a strict subset of its recipients).  Both are
  budgeted: the delivered set always keeps a strict majority of the new
  partition set *and* of the anchor's previous one, because anything
  less forks even a correct protocol (the paper's model makes commit
  delivery within a partition reliable).
  ``unsafe_partial_commits=True`` lifts the budget, for demonstrating
  the resulting fork to the monitor.
* every protocol, MCV included, runs through it with core's own
  decision and COMMIT; the harness adds only faults and audits.
* :func:`run_schedule` drives one seeded schedule; :func:`run_sweep`
  fuzzes many seeds across the protocols; :func:`explain_divergence`
  re-runs a violating schedule against a reference protocol and diffs
  the decision traces (PR-2 analytics), so a violation report shows the
  first decision where the broken protocol left the safe path.

The topological protocols additionally get an *omniscient lineage
audit* at decision time: the message-level TDV/OTDV cannot implement
the lineage guard (it needs the globally newest generation, which no
message exchange provides — DESIGN.md §3), so the harness checks it
with its god's-eye view and converts would-be forks into denials,
exactly as the state-level guard does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.chaos.broken import GreedyTieBreakVoting
from repro.chaos.faults import PartialCommitStage, RequestReplyChaos
from repro.chaos.monitor import (
    InvariantMonitor,
    InvariantViolation,
    check_exclusion,
)
from repro.chaos.schedule import (
    ChaosPolicy,
    ChaosSchedule,
    build_schedule,
    derived_rng,
)
from repro.core.base import Commit, Verdict, VotingProtocol
from repro.core.dynamic import DynamicVoting
from repro.core.lexicographic import LexicographicDynamicVoting
from repro.core.mcv import MajorityConsensusVoting
from repro.core.optimistic import OptimisticDynamicVoting
from repro.core.optimistic_topological import OptimisticTopologicalDynamicVoting
from repro.core.topological import TopologicalDynamicVoting
from repro.engine.actors import MessageCluster
from repro.errors import (
    ConfigurationError,
    EngineError,
    ProtocolError,
    QuorumNotReachedError,
    SiteUnavailableError,
)
from repro.experiments.configs import configuration
from repro.experiments.testbed import testbed_topology
from repro.net.topology import Topology
from repro.net.views import NetworkView
from repro.obs.analysis.diff import TraceDiff, diff_traces
from repro.obs.tracer import FanoutSink, MemorySink, TraceRecord, Tracer

__all__ = [
    "AuditedCluster",
    "CHAOS_POLICIES",
    "ChaosRunResult",
    "PolicySweepRow",
    "StaticMajorityCluster",
    "SweepReport",
    "chaos_policies",
    "explain_divergence",
    "run_schedule",
    "run_sweep",
]

#: The paper's six protocols, all runnable under chaos.
CHAOS_POLICIES: tuple[str, ...] = ("MCV", "DV", "LDV", "ODV", "TDV", "OTDV")

#: Reference protocol for diffing a broken protocol's violating trace.
REFERENCE_POLICY: dict[str, str] = {"BROKEN-TIE": "LDV"}

_PROTOCOLS: dict[str, type[VotingProtocol]] = {
    "MCV": MajorityConsensusVoting,
    "DV": DynamicVoting,
    "LDV": LexicographicDynamicVoting,
    "ODV": OptimisticDynamicVoting,
    "TDV": TopologicalDynamicVoting,
    "OTDV": OptimisticTopologicalDynamicVoting,
    "BROKEN-TIE": GreedyTieBreakVoting,
}


def chaos_policies() -> tuple[str, ...]:
    """Every policy name the chaos harness accepts."""
    return CHAOS_POLICIES + ("BROKEN-TIE",)


def _resolve_policy(name: str) -> str:
    resolved = name.upper()
    if resolved not in chaos_policies():
        raise ConfigurationError(
            f"unknown chaos policy {name!r}; choose from {chaos_policies()}"
        )
    return resolved


class AuditedCluster(MessageCluster):
    """A :class:`MessageCluster` with budgeted commit faults and the
    omniscient lineage audit.

    Args:
        chaos: Fault intensities (commit faults only; message-level
            faults live in the network pipeline).
        rng: The harness's seeded random stream (victim and keep-set
            choices).
        commit_stage: The :class:`PartialCommitStage` installed in the
            pipeline, armed per broadcast with the computed keep-set.
    """

    def __init__(
        self,
        topology: Topology,
        copy_sites: frozenset[int] | set[int],
        protocol: type[VotingProtocol],
        chaos: ChaosPolicy,
        rng: Any,
        tracer: Optional[Tracer] = None,
        pipeline: Sequence[Any] = (),
        commit_stage: Optional[PartialCommitStage] = None,
        initial: Any = None,
    ):
        super().__init__(
            topology,
            copy_sites,
            protocol=protocol,
            initial=initial,
            tracer=tracer,
            pipeline=pipeline,
            tolerate_stale=True,
        )
        self._chaos = chaos
        self._rng = rng
        self._commit_stage = commit_stage
        self._protocol_class = protocol
        self._audit_lineage = bool(getattr(protocol, "lineage_guard", False))
        self._flap_armed = False
        self._flap_victims: list[int] = []
        self._anchor_pset: frozenset[int] = frozenset(copy_sites)
        self.flap_crashes = 0

    # ------------------------------------------------------------------
    # monitor plumbing
    # ------------------------------------------------------------------
    def probe_rules(self) -> Any:
        """The rules factory the exclusion probe evaluates blocks with.

        The probe is omniscient, so it evaluates the protocol *as
        defined* — including the lineage guard the message-level rules
        must strip (the guard needs global knowledge, which the probe
        has).  Without it the probe would flag the stale side of a
        guarded lineage split that no operation can actually commit
        from.
        """
        return self._protocol_class

    def replica_states(self) -> dict[int, tuple[int, int, frozenset[int]]]:
        """Every copy's actual stored ``(o, v, P)`` triple."""
        return {sid: actor.state.snapshot()
                for sid, actor in self._actors.items()}

    # ------------------------------------------------------------------
    # chaos controls
    # ------------------------------------------------------------------
    def arm_flap(self) -> None:
        """Crash one commit recipient mid-operation at the next COMMIT."""
        self._flap_armed = True

    def take_flap_victims(self) -> tuple[int, ...]:
        """Flap victims since the last call (the harness restarts them)."""
        victims, self._flap_victims = tuple(self._flap_victims), []
        return victims

    # ------------------------------------------------------------------
    # decision audit
    # ------------------------------------------------------------------
    def _decide(self, at_site: int
                ) -> tuple[VotingProtocol, Verdict, NetworkView]:
        rules, verdict, view = super()._decide(at_site)
        if not verdict.granted:
            return rules, verdict, view
        self._anchor_pset = verdict.partition_set
        if self._audit_lineage:
            global_top = max(
                actor.state.operation for actor in self._actors.values()
            )
            anchor = rules.replicas.state(verdict.reference).operation
            if anchor < global_top:
                verdict = verdict.decided(
                    False,
                    "stale generation: a newer commit exists at an "
                    "unreachable copy (omniscient lineage audit, "
                    f"o={anchor} < {global_top})")
        return rules, verdict, view

    # ------------------------------------------------------------------
    # commit faults
    # ------------------------------------------------------------------
    def _deliverable(self, view: NetworkView, at_site: int,
                     members: frozenset[int]) -> frozenset[int]:
        return frozenset(
            m
            for m in members
            if m == at_site
            or (view.is_up(m) and view.can_communicate(at_site, m))
        )

    def _budget_ok(self, delivered: frozenset[int],
                   members: frozenset[int]) -> bool:
        """Whether *delivered* keeps both majorities that make a partial
        delivery safe: of the committed partition set, and of the
        anchor's previous one (so no stale rival can re-grant)."""
        previous = self._anchor_pset or members
        return (
            2 * len(delivered & members) > len(members)
            and 2 * len(delivered & previous) > len(previous)
        )

    def _pick_flap_victim(self, view: NetworkView, at_site: int,
                          members: frozenset[int]) -> Optional[int]:
        base = self._deliverable(view, at_site, members)
        candidates = [m for m in sorted(members) if m != at_site
                      and view.is_up(m)]
        self._rng.shuffle(candidates)
        for victim in candidates:
            if self._budget_ok(base - {victim}, members):
                return victim
        return None

    def _partial_commit_keep(self, view: NetworkView, at_site: int,
                             members: frozenset[int]
                             ) -> Optional[frozenset[int]]:
        if self._commit_stage is None or not members:
            return None
        if self._rng.random() >= self._chaos.partial_commit_rate:
            return None
        base = sorted(self._deliverable(view, at_site, members))
        if self._chaos.unsafe_partial_commits:
            if len(base) < 2:
                return None
            size = min(
                max(1, self._rng.randint(1, max(1, len(members) // 2))),
                len(base) - 1,
            )
            return frozenset(self._rng.sample(base, size))
        majority = len(members) // 2 + 1
        if len(base) <= majority:
            return None  # nothing can be dropped within the budget
        for _ in range(8):
            size = self._rng.randint(majority, len(base) - 1)
            keep = frozenset(self._rng.sample(base, size))
            if self._budget_ok(keep, members):
                return keep
        return None

    def _commit(self, at_site: int, view: NetworkView, commit: Commit,
                payload: Any = None, carries_payload: bool = False) -> None:
        members = commit.recipients
        if self._flap_armed:
            self._flap_armed = False
            victim = self._pick_flap_victim(view, at_site, members)
            if victim is not None:
                self.fail_site(victim)
                self._flap_victims.append(victim)
                self.flap_crashes += 1
                if self._tracer is not None:
                    self._tracer.record(
                        "chaos.fault", fault="flap-crash", site=victim,
                        members=members,
                    )
                # The COMMIT happens after the crash: refresh the view so
                # delivery reflects the flapped network, not the one the
                # state collection saw.
                view = self.view()
        keep = self._partial_commit_keep(view, at_site, members)
        if keep is None:
            super()._commit(at_site, view, commit, payload, carries_payload)
            return
        assert self._commit_stage is not None
        self._commit_stage.arm(keep)
        try:
            super()._commit(at_site, view, commit, payload, carries_payload)
        finally:
            self._commit_stage.disarm()


class StaticMajorityCluster(AuditedCluster):
    """An :class:`AuditedCluster` running MCV."""

    def __init__(self, topology: Topology,
                 copy_sites: frozenset[int] | set[int], chaos: ChaosPolicy,
                 rng: Any, **options: Any):
        super().__init__(topology, copy_sites, MajorityConsensusVoting,
                         chaos, rng, **options)


@dataclass
class ChaosRunResult:
    """Outcome of one seeded schedule against one protocol."""

    policy: str
    schedule: ChaosSchedule
    operations: int = 0
    granted: int = 0
    denied: int = 0
    aborted: int = 0
    stale_commits: int = 0
    faults_injected: int = 0
    messages_sent: int = 0
    violation: Optional[InvariantViolation] = None
    records: tuple[TraceRecord, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether every invariant held for the whole run."""
        return self.violation is None

    def record_dicts(self) -> list[dict]:
        """The trace as JSON-shaped dictionaries (diff/audit input)."""
        return [record.to_dict() for record in self.records]

    def to_dict(self) -> dict:
        """A JSON-serialisable summary (without the trace body)."""
        return {
            "policy": self.policy,
            "seed": self.schedule.seed,
            "config": self.schedule.config,
            "steps": len(self.schedule.steps),
            "operations": self.operations,
            "granted": self.granted,
            "denied": self.denied,
            "aborted": self.aborted,
            "stale_commits": self.stale_commits,
            "faults_injected": self.faults_injected,
            "messages_sent": self.messages_sent,
            "ok": self.ok,
            "violation": (
                None if self.violation is None else self.violation.to_dict()
            ),
        }


def _build_cluster(name: str, schedule: ChaosSchedule, topology: Topology,
                   tracer: Tracer, faults: bool
                   ) -> tuple[AuditedCluster, list[Any]]:
    commit_stage = PartialCommitStage(tracer) if faults else None
    stages: list[Any] = []
    if faults:
        stages.append(
            RequestReplyChaos(schedule.policy, schedule.seed, tracer)
        )
        stages.append(commit_stage)
    rng = derived_rng(schedule.seed, "harness")
    common = dict(
        chaos=schedule.policy,
        rng=rng,
        tracer=tracer,
        pipeline=tuple(stages),
        commit_stage=commit_stage,
        initial="v0",
    )
    cluster = AuditedCluster(topology, schedule.copy_sites, _PROTOCOLS[name],
                             **common)
    return cluster, stages


def _apply_step(cluster: AuditedCluster, monitor: InvariantMonitor,
                step: Any, index: int, result: ChaosRunResult,
                faults: bool) -> None:
    if step.kind == "crash":
        cluster.fail_site(step.site)
        return
    if step.kind == "restart":
        cluster.restart_site(step.site)
        return
    if step.kind == "flap":
        if faults:
            cluster.arm_flap()
        return
    view = cluster.view()
    monitor.note_network(view.up, view.blocks)
    result.operations += 1
    try:
        if step.kind == "read":
            cluster.read(step.site)
        elif step.kind == "write":
            cluster.write(step.site, f"s{index}")
        else:
            cluster.recover(step.site)
    except (QuorumNotReachedError, SiteUnavailableError):
        result.denied += 1
    except EngineError:
        # A dropped/delayed data exchange aborts the operation before
        # its COMMIT — annoying, not unsafe.
        result.aborted += 1
    except ProtocolError as exc:
        monitor.violation("divergent-state", str(exc))
    else:
        result.granted += 1


def run_schedule(
    schedule: ChaosSchedule,
    policy: str,
    topology: Optional[Topology] = None,
    faults: bool = True,
    sink: Optional[Any] = None,
    profiler: Optional[Any] = None,
    bus: Optional[Any] = None,
) -> ChaosRunResult:
    """Execute *schedule* against *policy* with the monitor always on.

    Deterministic: every random stream is derived from the schedule's
    seed, so the same (schedule, policy) pair reproduces the same run —
    including any violation — message for message.  ``faults=False``
    executes the same operation/crash/restart sequence with every fault
    channel disabled (the reference run for divergence reports).

    A *profiler* (:class:`~repro.obs.prof.phases.PhaseProfiler`) is
    attached to the cluster, so per-operation and per-message-type
    hot-path counters are collected (``repro profile chaos``); it never
    changes the run.

    A *bus* (:class:`~repro.obs.live.bus.TelemetryBus`) receives an
    ``invariant.violation`` event the instant the monitor trips and a
    ``chaos.run`` summary when the schedule ends; ``None`` costs
    nothing.

    Returns a :class:`ChaosRunResult`; a violation ends the run at its
    step and is stored on the result rather than raised.
    """
    name = _resolve_policy(policy)
    if topology is None:
        topology = testbed_topology()
    memory = MemorySink(capacity=250_000)
    inner: Any = memory if sink is None else FanoutSink((memory, sink))
    monitor = InvariantMonitor(inner, policy=name, seed=schedule.seed,
                               bus=bus)
    tracer = Tracer(monitor)
    cluster, stages = _build_cluster(name, schedule, topology, tracer, faults)
    if profiler is not None:
        cluster.attach_profiler(profiler)
    result = ChaosRunResult(policy=name, schedule=schedule)
    try:
        for index, step in enumerate(schedule.steps):
            tracer.set_time(float(index))
            monitor.note_step(index)
            _apply_step(cluster, monitor, step, index, result, faults)
            view = cluster.view()
            cluster.network.release_held(view)
            for sid in sorted(cluster.copy_sites):
                if view.is_up(sid):
                    cluster.actor(sid).step(view, cluster.network)
            for victim in cluster.take_flap_victims():
                cluster.restart_site(victim)
            view = cluster.view()
            monitor.note_network(view.up, view.blocks)
            try:
                check_exclusion(
                    cluster.probe_rules(),
                    cluster.replica_states(),
                    view,
                    cluster.copy_sites,
                    monitor,
                )
            except ProtocolError as exc:
                monitor.violation("divergent-state", str(exc))
    except InvariantViolation as violation:
        violation.schedule = schedule.to_dict()
        result.violation = violation
    result.stale_commits = sum(
        cluster.actor(sid).stale_commits for sid in cluster.copy_sites
    )
    result.faults_injected = cluster.flap_crashes + sum(
        getattr(stage, "faults_injected", 0)
        + getattr(stage, "commits_suppressed", 0)
        for stage in stages
        if stage is not None
    )
    result.messages_sent = cluster.network.sent
    result.records = memory.records
    if bus is not None:
        bus.publish(
            "chaos.run",
            policy=name,
            seed=schedule.seed,
            config=schedule.config,
            operations=result.operations,
            granted=result.granted,
            denied=result.denied,
            ok=result.ok,
        )
    return result


@dataclass
class PolicySweepRow:
    """Aggregate of all seeds swept for one protocol."""

    policy: str
    runs: int = 0
    operations: int = 0
    granted: int = 0
    denied: int = 0
    aborted: int = 0
    stale_commits: int = 0
    faults_injected: int = 0
    violations: list[InvariantViolation] = field(default_factory=list)
    first_violation: Optional[ChaosRunResult] = None

    def to_dict(self) -> dict:
        """A JSON-serialisable per-policy aggregate."""
        return {
            "policy": self.policy,
            "runs": self.runs,
            "operations": self.operations,
            "granted": self.granted,
            "denied": self.denied,
            "aborted": self.aborted,
            "stale_commits": self.stale_commits,
            "faults_injected": self.faults_injected,
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass
class SweepReport:
    """Outcome of a multi-policy, multi-seed chaos sweep."""

    rows: list[PolicySweepRow]
    seeds: tuple[int, ...]
    steps: int
    config: str
    chaos: ChaosPolicy

    @property
    def total_runs(self) -> int:
        return sum(row.runs for row in self.rows)

    @property
    def total_violations(self) -> int:
        return sum(len(row.violations) for row in self.rows)

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def to_dict(self) -> dict:
        """A JSON-serialisable sweep report (``--json-out`` document)."""
        return {
            "format": "repro-chaos-sweep",
            "version": 1,
            "config": self.config,
            "seeds": list(self.seeds),
            "steps": self.steps,
            "chaos": self.chaos.to_dict(),
            "total_runs": self.total_runs,
            "total_violations": self.total_violations,
            "rows": [row.to_dict() for row in self.rows],
        }


def run_sweep(
    policies: Sequence[str] = CHAOS_POLICIES,
    seeds: Iterable[int] = range(40),
    config: str = "H",
    steps: int = 60,
    chaos: Optional[ChaosPolicy] = None,
    topology: Optional[Topology] = None,
    stop_on_violation: bool = False,
    bus: Optional[Any] = None,
) -> SweepReport:
    """Fuzz *policies* with one seeded schedule per (policy, seed).

    The default 6 policies x 40 seeds runs 240 schedules.  Every run
    keeps the monitor on; violations are collected per policy (with the
    first violating run's full result kept for divergence reporting)
    rather than raised, so one broken protocol never hides another's.

    With a *bus*, the sweep publishes one ``chaos.phase`` event per
    policy, and each schedule's ``chaos.run`` / ``invariant.violation``
    events flow through :func:`run_schedule`.
    """
    if chaos is None:
        chaos = ChaosPolicy()
    if topology is None:
        topology = testbed_topology()
    placement = configuration(config)
    seeds = tuple(seeds)
    names = [_resolve_policy(policy) for policy in policies]
    rows = []
    for name in names:
        row = PolicySweepRow(policy=name)
        if bus is not None:
            bus.publish(
                "chaos.phase", policy=name, seeds=len(seeds),
                config=placement.key,
            )
        for seed in seeds:
            schedule = build_schedule(
                seed,
                placement.copy_sites,
                topology.site_ids,
                policy=chaos,
                length=steps,
                config=placement.key,
            )
            result = run_schedule(schedule, name, topology=topology,
                                  bus=bus)
            row.runs += 1
            row.operations += result.operations
            row.granted += result.granted
            row.denied += result.denied
            row.aborted += result.aborted
            row.stale_commits += result.stale_commits
            row.faults_injected += result.faults_injected
            if result.violation is not None:
                row.violations.append(result.violation)
                if row.first_violation is None:
                    row.first_violation = result
                if stop_on_violation:
                    break
        rows.append(row)
    return SweepReport(rows=rows, seeds=seeds, steps=steps,
                       config=placement.key, chaos=chaos)


def explain_divergence(result: ChaosRunResult,
                       topology: Optional[Topology] = None
                       ) -> Optional[TraceDiff]:
    """Diff a violating run against its reference run (PR-2 analytics).

    A broken protocol is diffed against its safe counterpart under the
    *same* faults (BROKEN-TIE vs LDV: the first divergent decision is
    the first greedy tie grant).  A correct protocol that violated —
    only possible with ``unsafe_partial_commits`` — is diffed against
    its own fault-free run.  Decision positions align because the
    harness stamps every record with its schedule-step index.
    """
    if result.violation is None:
        return None
    reference_policy = REFERENCE_POLICY.get(result.policy)
    if reference_policy is not None:
        reference = run_schedule(result.schedule, reference_policy,
                                 topology=topology)
    else:
        reference = run_schedule(result.schedule, result.policy,
                                 topology=topology, faults=False)
    return diff_traces(result.record_dicts(), reference.record_dicts())
