"""The three simulator workloads: two availability studies and a chaos sweep.

Each workload runs whole *laps* of the public entry point (``run_study`` /
``run_sweep``) until the measuring time is up.  Lap ``i`` of seed ``S`` uses
the inputs of seed ``S + i`` (studies) or the twelve schedule seeds starting
at ``S + 12 i`` (sweep), so no lap repeats another's inputs and a cache inside
the program cannot be warmed by the benchmark's own repetition.

Per-cell and per-schedule times come from the public ``progress=`` and
``bus=`` hooks, which cost one call per cell or schedule.  A traced lap hands
a :class:`~perf.measure.SpanLog` to the public ``profiler=`` hook instead and
the layer functions are then timed in isolation over the lap's own inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Optional, Sequence

from repro.chaos import (
    CHAOS_POLICIES,
    ChaosPolicy,
    build_schedule,
    run_schedule,
    run_sweep,
)
from repro.core import PAPER_POLICIES, make_protocol
from repro.experiments import (
    CONFIGURATIONS,
    StudyParameters,
    poisson_times,
    run_study,
    testbed_topology,
)
from repro.failures import generate_trace, testbed_profiles
from repro.replica import ReplicaSet
from repro.sim import Simulation
from repro.stats import AvailabilityTracker, BatchMeans

from perf.measure import (
    UNTRACED_SHARE,
    SpanLog,
    duration,
    percentile,
    self_times,
)

EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Study:
    """The shape of one study lap (the seed is the lap's own)."""

    horizon: float
    warmup: float
    access_rate_per_day: float
    policies: tuple[str, ...]

    def parameters(self, seed: int) -> StudyParameters:
        """The lap's ``StudyParameters``."""
        return StudyParameters(
            horizon=self.horizon, warmup=self.warmup, batches=20, seed=seed,
            access_rate_per_day=self.access_rate_per_day)


#: A lap is sized to ≈2 s on the 2-core reference box, so a 10 s run holds
#: about five; configurations are always A–H.
STUDIES = {
    "study_paper": Study(1500.0, 360.0, 1.0, PAPER_POLICIES),
    "study_dense_access": Study(240.0, 60.0, 24.0, ("ODV", "OTDV")),
}

CHAOS_SEEDS_PER_LAP = 12
CHAOS_STEPS = 60
CHAOS_CONFIG = "H"
CANARY_SEEDS = 10


@dataclass
class Lap:
    """What one lap produced."""

    seed: int
    wall: float
    work: int                      # replay events / simulated operations
    unit_seconds: list[float]      # one per cell / schedule
    units_failed: int
    digest: str
    detail: dict[str, Any]


def load_expected() -> dict[str, dict[str, str]]:
    """The pinned digests: ``{workload: {lap seed: sha256}}``."""
    return json.loads(EXPECTED_PATH.read_text())


def _sha256(rows: Sequence[tuple]) -> str:
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


# ----------------------------------------------------------------------
# availability studies
# ----------------------------------------------------------------------
class _CellClock:
    """Timestamps finished cells through ``run_study(progress=factory)``."""

    _bus = None  # the runner reads this only when it was given a bus

    def __init__(self) -> None:
        self.events_per_cell = 0
        self.stamps: list[float] = []

    def __call__(self, total_cells: int, events_per_cell: int) -> "_CellClock":
        self.events_per_cell = events_per_cell
        self.stamps = [time.perf_counter()]
        return self

    def cell_done(self, key: tuple[str, str]) -> None:
        self.stamps.append(time.perf_counter())


@functools.cache
def _optimistic(policy: str) -> bool:
    return not make_protocol(policy, ReplicaSet({1, 2, 3})).eager


def study_lap(study: Study, seed: int, log: Optional[SpanLog] = None) -> Lap:
    """One ``run_study`` over A–H; traced when given a *log*."""
    params = study.parameters(seed)
    clock = _CellClock()
    start = time.perf_counter()
    if log is None:
        result = run_study(params, policies=study.policies, jobs=1,
                           progress=clock)
    else:
        with log.span("run_study", seed=seed):
            result = run_study(params, policies=study.policies, jobs=1,
                               progress=clock, profiler=log)
    wall = time.perf_counter() - start
    events = 0
    transitions = 0
    rows = []
    for (config, policy), cell in result.items():
        outcome = cell.result
        if _optimistic(policy):
            events += clock.events_per_cell
            transitions += clock.events_per_cell - outcome.synchronizations
        else:
            events += outcome.synchronizations
            transitions += outcome.synchronizations
        rows.append((config, policy, repr(outcome.unavailability),
                     repr(outcome.mean_down_duration),
                     outcome.committed_operations, outcome.down_periods))
    cells = len(CONFIGURATIONS) * len(study.policies)
    stamps = clock.stamps
    return Lap(
        seed=seed, wall=wall, work=events,
        unit_seconds=[b - a for a, b in zip(stamps, stamps[1:])],
        units_failed=cells - len(result),
        digest=_sha256(rows),
        detail={"cells": cells, "transitions": transitions,
                "failed_cells": [f.to_dict() for f in result.failed_cells]},
    )


# ----------------------------------------------------------------------
# chaos sweep
# ----------------------------------------------------------------------
class _ScheduleClock:
    """Timestamps finished schedules through ``run_sweep(bus=...)``."""

    def __init__(self) -> None:
        self.stamps = [time.perf_counter()]

    def publish(self, event: str, **fields: Any) -> None:
        if event == "chaos.run":
            self.stamps.append(time.perf_counter())


def _outcome_counts(row: Any) -> tuple[int, int, int, int]:
    return (row.operations, row.granted, row.denied, row.aborted)


def chaos_lap(first_seed: int, log: Optional[SpanLog] = None) -> Lap:
    """One sweep of the six correct protocols over twelve schedule seeds.

    Untraced this is one ``run_sweep`` call.  Traced, the same schedules
    are built and run one by one so that ``build_schedule`` and
    ``run_schedule`` each get a span and the engine's counters land in
    *log*; the per-policy totals are pinned to the same digest either way.
    """
    seeds = range(first_seed, first_seed + CHAOS_SEEDS_PER_LAP)
    start = time.perf_counter()
    detail: dict[str, Any] = {}
    if log is None:
        clock = _ScheduleClock()
        report = run_sweep(CHAOS_POLICIES, seeds=seeds, config=CHAOS_CONFIG,
                           steps=CHAOS_STEPS, bus=clock)
        wall = time.perf_counter() - start
        unit_seconds = [b - a for a, b in
                        zip(clock.stamps, clock.stamps[1:])]
        rows = [(row.policy, *_outcome_counts(row)) for row in report.rows]
        violations = report.total_violations
    else:
        topology = testbed_topology()
        placement = CONFIGURATIONS[CHAOS_CONFIG]
        results = []
        unit_seconds = []
        for policy in CHAOS_POLICIES:
            for seed in seeds:
                with log.span("chaos.schedule", policy=policy) as unit:
                    with log.span("build_schedule"):
                        schedule = build_schedule(
                            seed, placement.copy_sites, topology.site_ids,
                            policy=ChaosPolicy(), length=CHAOS_STEPS,
                            config=CHAOS_CONFIG)
                    with log.span("run_schedule", policy=policy):
                        results.append(run_schedule(
                            schedule, policy, topology=topology,
                            profiler=log))
                unit_seconds.append(duration(unit))
        wall = time.perf_counter() - start
        rows = [(policy, *map(sum, zip(*(
            _outcome_counts(r) for r in results if r.policy == policy))))
            for policy in CHAOS_POLICIES]
        violations = sum(1 for result in results if not result.ok)
        detail["messages"] = sum(r.messages_sent for r in results)
        detail["faults"] = sum(r.faults_injected for r in results)
    return Lap(
        seed=first_seed, wall=wall, work=sum(row[1] for row in rows),
        unit_seconds=unit_seconds, units_failed=violations,
        digest=_sha256(rows), detail=detail,
    )


def canary_caught(seed: int) -> bool:
    """Whether the monitor flags the deliberately broken tie-break."""
    report = run_sweep(("BROKEN-TIE",), seeds=range(seed, seed + CANARY_SEEDS),
                       config=CHAOS_CONFIG, steps=CHAOS_STEPS)
    return report.total_violations >= 1


# ----------------------------------------------------------------------
# the workload loop
# ----------------------------------------------------------------------
def setup(name: str, seed: int) -> None:
    """What a fresh interpreter does before the first lap can start.

    The runner times this in child processes (imports included).  The
    sweep also proves here that its monitor is switched on.
    """
    load_expected()
    if name in STUDIES:
        STUDIES[name].parameters(seed)
        testbed_topology()
        testbed_profiles()
    elif not canary_caught(seed):
        raise SystemExit("BROKEN-TIE canary was not caught: monitor is off")


def _lap(name: str, seed: int, index: int, log: Optional[SpanLog]) -> Lap:
    if name in STUDIES:
        return study_lap(STUDIES[name], seed + index, log)
    return chaos_lap(seed + CHAOS_SEEDS_PER_LAP * index, log)


def _laps(name: str, seed: int, first: int, seconds: float,
          log: Optional[SpanLog]) -> list[Lap]:
    laps = []
    started = time.perf_counter()
    while not laps or time.perf_counter() - started < seconds:
        laps.append(_lap(name, seed, first + len(laps), log))
    return laps


def _gate(name: str, laps: Sequence[Lap], problems: list[str]) -> None:
    pinned = load_expected().get(name, {})
    for lap in laps:
        if lap.units_failed:
            problems.append(
                f"{name} lap seed {lap.seed}: {lap.units_failed} failed "
                f"units {lap.detail.get('failed_cells', '')}")
        want = pinned.get(str(lap.seed))
        if want is not None and want != lap.digest:
            problems.append(
                f"{name} lap seed {lap.seed}: digest {lap.digest} differs "
                f"from the pinned {want}")


def _end_to_end(laps: Sequence[Lap]) -> dict[str, float]:
    units = [1000.0 * s for lap in laps for s in lap.unit_seconds]
    return {
        "ops_per_s": median([lap.work / lap.wall for lap in laps]),
        "p50_ms": percentile(units, 50.0),
    }


def run(name: str, seed: int, seconds: float, log: Optional[SpanLog],
        problems: list[str]) -> tuple[dict[str, float], int, int]:
    """Run workload *name*; returns ``(metrics, attempted, failed)``.

    Untraced (*log* is ``None``) the metrics are the end-to-end ones.
    Traced, a first share of the time runs untraced reference laps, the
    rest runs traced laps, and the metrics are the per-layer ones.
    """
    if log is None:
        laps = _laps(name, seed, 0, seconds, None)
        metrics = _end_to_end(laps)
    else:
        reference = _laps(name, seed, 0, UNTRACED_SHARE * seconds, None)
        traced = _laps(name, seed, len(reference),
                       (1.0 - UNTRACED_SHARE) * seconds, log)
        laps = reference + traced
        metrics = _layers(name, reference, traced, log)
    _gate(name, laps, problems)
    attempted = sum(len(lap.unit_seconds) for lap in laps)
    return metrics, attempted, sum(lap.units_failed for lap in laps)


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _layers(name: str, reference: Sequence[Lap], traced: Sequence[Lap],
            log: SpanLog) -> dict[str, float]:
    untraced_rate = median([lap.work / lap.wall for lap in reference])
    traced_rate = median([lap.work / lap.wall for lap in traced])
    metrics = {
        "trace.overhead_ratio": untraced_rate / traced_rate,
        "trace.spans": float(len(log.spans)),
    }
    if name in STUDIES:
        metrics.update(_study_layers(STUDIES[name], reference, traced, log))
    else:
        metrics.update(_chaos_layers(traced, log))
    return metrics


def _mean_us(seconds: float, calls: int) -> float:
    return 1e6 * seconds / calls if calls else 0.0


def _study_layers(study: Study, reference: Sequence[Lap],
                  traced: Sequence[Lap], log: SpanLog) -> dict[str, float]:
    metrics: dict[str, float] = {}
    own = self_times(log.spans)
    laps = len(traced)
    metrics["failures.trace_gen_s"] = median(
        [duration(s) for s in log.named("study.trace")])
    metrics["evaluator.access_gen_s"] = median(
        [duration(s) for s in log.named("study.access")])
    metrics["runner.overhead_s"] = own.get("run_study", 0.0) / laps
    metrics["evaluator.cell_p90_ms"] = 1e3 * percentile(
        [s for lap in traced for s in lap.unit_seconds], 90.0)
    for policy in study.policies:
        cells = [duration(s) for s in log.named("cell")
                 if s["policy"] == policy]
        metrics[f"evaluator.cell_s.{policy}"] = median(cells)
        metrics[f"core.evaluate_calls.{policy}"] = (
            log.counts.get(f"quorum.evaluate.{policy}", 0.0) / laps)

    # The inputs of the last traced lap, replayed through each layer alone.
    params = study.parameters(traced[-1].seed)
    topology = testbed_topology()
    trace = generate_trace(testbed_profiles(), params.horizon, params.seed)
    accesses = poisson_times(params.access_rate_per_day, trace.horizon,
                             params.seed)
    metrics["failures.trace_events"] = float(len(trace.events))
    metrics["sim.events_per_s"] = _kernel_events_per_s()

    up = set(trace.site_ids)
    up_sets = [frozenset(up)]
    for event in trace.events:
        (up.add if event.up else up.discard)(event.site_id)
        up_sets.append(frozenset(up))
    start = time.perf_counter()
    views = [topology.view(up_set) for up_set in up_sets]
    view_us = _mean_us(time.perf_counter() - start, len(views))
    metrics["net.view_us"] = view_us
    metrics["net.view_calls"] = float(
        median([lap.detail["transitions"] + lap.detail["cells"]
                for lap in traced]))
    # Share of the untraced laps' cell time that is the partition oracle.
    view_seconds = sum(lap.detail["transitions"] + lap.detail["cells"]
                       for lap in reference) * view_us / 1e6
    metrics["net.view_share"] = view_seconds / sum(
        sum(lap.unit_seconds) for lap in reference)

    replicas = None
    verdicts: list[tuple[float, bool]] = []
    for policy in study.policies:
        replicas = ReplicaSet(CONFIGURATIONS["H"].copy_sites)
        sync_us, avail_us, verdicts = _replay_core(
            make_protocol(policy, replicas), trace, views, accesses)
        metrics[f"core.sync_us.{policy}"] = sync_us
        metrics[f"core.avail_us.{policy}"] = avail_us
    metrics.update(_replica_scans(replicas, views))
    metrics.update(_stats_layer(verdicts, params))
    return metrics


def _kernel_events_per_s(events: int = 20000) -> float:
    sim = Simulation()

    def tick() -> None:
        sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    start = time.perf_counter()
    sim.run(max_events=events)
    return events / (time.perf_counter() - start)


def _replay_core(protocol: Any, trace: Any, views: Sequence[Any],
                 accesses: Sequence[float]
                 ) -> tuple[float, float, list[tuple[float, bool]]]:
    """The evaluator's merge loop with ``synchronize`` and ``is_available``
    timed call by call over precomputed views (configuration H)."""
    clock = time.perf_counter
    sync = avail = 0.0
    syncs = 0
    verdicts = []
    events = trace.events
    if protocol.eager:
        accesses = ()
    i = j = 0
    view = views[0]
    while i < len(events) or j < len(accesses):
        if j >= len(accesses) or (
                i < len(events) and events[i].time <= accesses[j]):
            now = events[i].time
            i += 1
            view = views[i]
            synchronise = protocol.eager
            if not synchronise:
                protocol.recover_stale(view)
        else:
            now = accesses[j]
            j += 1
            synchronise = True
        if synchronise:
            start = clock()
            protocol.synchronize(view)
            sync += clock() - start
            syncs += 1
        start = clock()
        available = protocol.is_available(view)
        avail += clock() - start
        verdicts.append((now, available))
    return _mean_us(sync, syncs), _mean_us(avail, len(verdicts)), verdicts


def _replica_scans(replicas: Any, views: Sequence[Any]) -> dict[str, float]:
    groups = [among for view in views for block in view.blocks
              if (among := replicas.reachable(block))]
    timings = {}
    for label, scan in (("current_sites", replicas.current_sites),
                        ("newest_sites", replicas.newest_sites)):
        start = time.perf_counter()
        for among in groups:
            scan(among)
        timings[f"replica.{label}_us"] = _mean_us(
            time.perf_counter() - start, len(groups))
    return timings


def _stats_layer(verdicts: Sequence[tuple[float, bool]],
                 params: StudyParameters) -> dict[str, float]:
    tracker = AvailabilityTracker(0.0, initially_up=True,
                                  warmup=params.warmup, keep_periods=True)
    start = time.perf_counter()
    for now, available in verdicts:
        tracker.set_state(now, available)
    tracker_us = _mean_us(time.perf_counter() - start, len(verdicts))
    tracker.finish(params.horizon)
    start = time.perf_counter()
    span = (params.horizon - params.warmup) / params.batches
    means = BatchMeans()
    for k in range(params.batches):
        low = params.warmup + k * span
        clips = (p.clipped(low, low + span) for p in tracker.periods)
        means.add(sum(c.duration for c in clips if c is not None) / span)
    means.interval()
    return {"stats.tracker_us": tracker_us,
            "stats.batch_interval_ms": 1e3 * (time.perf_counter() - start)}


def _chaos_layers(traced: Sequence[Lap], log: SpanLog) -> dict[str, float]:
    runs = log.named("run_schedule")
    operations = sum(lap.work for lap in traced)
    schedules = sum(len(lap.unit_seconds) for lap in traced)
    metrics = {
        "engine.ops_per_s": operations / sum(duration(s) for s in runs),
        "engine.msgs_per_op":
            sum(lap.detail["messages"] for lap in traced) / operations,
        "chaos.faults_per_schedule":
            sum(lap.detail["faults"] for lap in traced) / schedules,
        "chaos.schedule_build_us": 1e6 * median(
            [duration(s) for s in log.named("build_schedule")]),
        "chaos.schedule_p90_ms": 1e3 * percentile(
            [s for lap in traced for s in lap.unit_seconds], 90.0),
    }
    for policy in CHAOS_POLICIES:
        metrics[f"chaos.run_schedule_ms.{policy}"] = 1e3 * median(
            [duration(s) for s in runs if s["policy"] == policy])
    return metrics
