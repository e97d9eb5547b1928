"""Sweeping (configuration × policy) cells over a shared failure trace."""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.live.bus import TelemetryBus
    from repro.obs.prof.phases import PhaseProfiler

from repro.core.registry import PAPER_POLICIES
from repro.errors import ConfigurationError
from repro.experiments.configs import CONFIGURATIONS, Configuration
from repro.experiments.evaluator import (
    EvaluationResult,
    evaluate_policy,
    poisson_times,
    view_timeline,
)
from repro.experiments.testbed import testbed_topology
from repro.failures.profiles import testbed_profiles
from repro.failures.trace import FailureTrace, generate_trace
from repro.net.topology import Topology
from repro.net.views import NetworkView
from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.telemetry import StudyProgress
from repro.obs.tracer import FanoutSink, Tracer
from repro.util.backoff import BackoffPolicy

_log = get_logger("experiments.runner")

#: The cell-retry policy.  A simulation cell fails deterministically or
#: not at all (shared trace, fixed seed), so pacing is pointless: zero
#: base delay, no jitter — but the *attempt budget* comes from the same
#: :class:`BackoffPolicy` the service client uses, so "how often do we
#: retry" has exactly one definition in the package.
_CELL_RETRY = BackoffPolicy(base=0.0, jitter=0.0, max_attempts=2)

__all__ = [
    "FailedCell",
    "StudyParameters",
    "StudyResult",
    "CellResult",
    "run_cell",
    "run_study",
]

#: Environment variable overriding the default simulated horizon (days),
#: so `REPRO_SIM_DAYS=200000 pytest benchmarks/` runs paper-length studies.
HORIZON_ENV = "REPRO_SIM_DAYS"


def default_horizon(fallback: float = 40_000.0) -> float:
    """The simulated horizon in days, honouring ``REPRO_SIM_DAYS``."""
    raw = os.environ.get(HORIZON_ENV)
    if raw is None:
        return fallback
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{HORIZON_ENV}={raw!r} is not a number") from None
    if value <= 0:
        raise ConfigurationError(f"{HORIZON_ENV} must be > 0, got {value}")
    return value


@dataclass(frozen=True)
class StudyParameters:
    """Everything that defines one availability study run.

    Defaults follow the paper: one access per day for the optimistic
    policies, a 360-day warm-up, batch-means confidence intervals.  The
    horizon is a compromise between fidelity and runtime; set the
    ``REPRO_SIM_DAYS`` environment variable (or pass ``horizon``) for
    longer, tighter runs.
    """

    horizon: float = field(default_factory=default_horizon)
    warmup: float = 360.0
    batches: int = 20
    seed: int = 1988
    access_rate_per_day: float = 1.0

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ConfigurationError(
                f"warmup must be >= 0, got {self.warmup}"
            )
        if self.horizon <= self.warmup:
            raise ConfigurationError(
                f"horizon ({self.horizon}) must exceed warmup ({self.warmup})"
            )


@dataclass(frozen=True)
class CellResult:
    """One (configuration, policy) cell of Table 2 / Table 3."""

    configuration: Configuration
    result: EvaluationResult

    @property
    def unavailability(self) -> float:
        return self.result.unavailability

    @property
    def mean_down_duration(self) -> float:
        return self.result.mean_down_duration


def run_cell(
    configuration: Configuration,
    policy: str,
    params: StudyParameters,
    topology: Optional[Topology] = None,
    trace: Optional[FailureTrace] = None,
    access_times: Optional[tuple[float, ...]] = None,
    metrics: Optional[MetricsRegistry] = None,
    profiler: Optional["PhaseProfiler"] = None,
    extra_sinks: Sequence[object] = (),
    views: Optional[Sequence[NetworkView]] = None,
) -> CellResult:
    """Evaluate one (configuration, policy) cell.

    *topology*, *trace* and *access_times* may be passed in so a study
    shares them across cells (common random numbers); when omitted they
    are built from *params*.  So may *views*, the trace's
    :func:`~repro.experiments.evaluator.view_timeline`, which every cell
    of one trace would otherwise rebuild.

    With a *metrics* registry, the cell's replay is wrapped in a
    ``cell.seconds`` timer and the protocol's decision stream is counted
    into per-policy ``quorum.granted`` / ``quorum.denied`` /
    ``tiebreak.lexicographic`` / ``votes.carried`` series, labelled by
    configuration.  Tallying never changes the simulated results.

    With a *profiler*, the cell is timed as a ``cell`` phase (labelled
    by configuration and policy) and the replay's hot-path counters are
    collected (see :func:`~repro.experiments.evaluator.evaluate_policy`).

    *extra_sinks* receive every decision record of the replay alongside
    the metrics tally (the run registry attaches a
    :class:`~repro.obs.registry.store.TimelineSink` this way).  Like
    metrics, sinks observe and never change the simulated results.
    """
    if topology is None:
        topology = testbed_topology()
    if trace is None:
        trace = generate_trace(testbed_profiles(), params.horizon, params.seed)
    if access_times is None:
        access_times = poisson_times(
            params.access_rate_per_day, trace.horizon, params.seed
        )

    def evaluate(tracer: Optional[Tracer]) -> EvaluationResult:
        return evaluate_policy(
            policy,
            topology,
            configuration.copy_sites,
            trace,
            warmup=params.warmup,
            batches=params.batches,
            access_times=access_times,
            tracer=tracer,
            profiler=profiler,
            views=views,
        )

    sinks: list[object] = []
    if metrics is not None:
        sinks.append(MetricsSink(metrics, config=configuration.key))
    sinks.extend(extra_sinks)
    cell_phase = (
        profiler.phase("cell", config=configuration.key, policy=policy)
        if profiler is not None else contextlib.nullcontext()
    )
    with cell_phase:
        if not sinks:
            result = evaluate(None)
        else:
            sink = sinks[0] if len(sinks) == 1 else FanoutSink(sinks)
            tracer = Tracer(sink)
            timer = (
                metrics.timed(
                    "cell.seconds", config=configuration.key, policy=policy
                )
                if metrics is not None else contextlib.nullcontext()
            )
            with timer:
                result = evaluate(tracer)
    return CellResult(configuration, result)


@dataclass(frozen=True)
class FailedCell:
    """A (configuration, policy) cell that failed even after a retry.

    Attributes:
        config_key: The configuration's key ("A" .. "H").
        policy: The policy that was being evaluated.
        error: ``TypeName: message`` of the final exception.
        attempts: How many evaluations were tried (normally 2).
    """

    config_key: str
    policy: str
    error: str
    attempts: int = 2

    def to_dict(self) -> dict:
        """A JSON-serialisable failure record."""
        return {
            "config": self.config_key,
            "policy": self.policy,
            "error": self.error,
            "attempts": self.attempts,
        }


class StudyResult(dict):
    """The cells of a study, keyed by ``(config_key, policy)``.

    A plain mapping to every consumer (tables, benchmarks), plus the
    :attr:`failed_cells` record of any cell whose evaluation raised
    twice — such cells are *absent* from the mapping, and the table
    formatters print them as ``?``/``-``.

    When the study ran with ``capture_timelines=True``,
    :attr:`timelines` maps ``config_key -> policy -> timeline
    document`` (the spans the run registry stores as
    ``timelines.json`` and the HTML report renders).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.failed_cells: tuple[FailedCell, ...] = ()
        self.timelines: dict[str, dict[str, dict]] = {}

    @property
    def ok(self) -> bool:
        """Whether every cell was evaluated successfully."""
        return not self.failed_cells


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


#: Per-worker study context, installed once by the pool initializer so
#: the (large) failure trace and access stream are pickled per *worker*,
#: not per task, and the view timeline is built once per worker.
_WORKER_CONTEXT: dict = {}


def _init_worker(
    params: StudyParameters,
    trace: FailureTrace,
    access_times: tuple[float, ...],
) -> None:
    _WORKER_CONTEXT["params"] = params
    _WORKER_CONTEXT["trace"] = trace
    _WORKER_CONTEXT["access_times"] = access_times
    topology = _WORKER_CONTEXT["topology"] = testbed_topology()
    _WORKER_CONTEXT["views"] = view_timeline(topology, trace)
    _WORKER_CONTEXT["events_per_cell"] = (
        len(trace.events) + len(access_times)
    )
    _WORKER_CONTEXT["events_done"] = 0
    _WORKER_CONTEXT.pop("sampler", None)


def _run_cell_worker(
    task: tuple[str, str, bool, bool, bool],
) -> tuple[
    tuple[str, str],
    CellResult,
    Optional[MetricsRegistry],
    Optional[dict],
]:
    """Process-pool entry point: one (configuration, policy) cell.

    The shared study context comes from :func:`_init_worker`; the task
    itself is just the cell key plus whether to tally metrics, capture
    timelines and sample resources (all returned per cell for the
    parent to merge — registries merge, timeline documents are
    per-cell already, and ``live.proc.*`` gauges ride in the metrics
    registry labelled by worker pid).
    """
    config_key, policy, want_metrics, want_timelines, want_live = task
    metrics = (
        MetricsRegistry() if (want_metrics or want_live) else None
    )
    timeline_sink = None
    extra_sinks: tuple[object, ...] = ()
    if want_timelines:
        from repro.obs.registry.store import TimelineSink

        timeline_sink = TimelineSink()
        extra_sinks = (timeline_sink,)
    cell = run_cell(
        CONFIGURATIONS[config_key],
        policy,
        _WORKER_CONTEXT["params"],
        topology=_WORKER_CONTEXT["topology"],
        trace=_WORKER_CONTEXT["trace"],
        access_times=_WORKER_CONTEXT["access_times"],
        metrics=metrics,
        extra_sinks=extra_sinks,
        views=_WORKER_CONTEXT["views"],
    )
    if want_live:
        from repro.obs.live.resources import ResourceSampler

        sampler = _WORKER_CONTEXT.get("sampler")
        if sampler is None:
            sampler = _WORKER_CONTEXT["sampler"] = ResourceSampler()
        _WORKER_CONTEXT["events_done"] += _WORKER_CONTEXT["events_per_cell"]
        sampler.tick(
            metrics=metrics,
            events=_WORKER_CONTEXT["events_done"],
            worker=os.getpid(),
        )
    documents = (
        timeline_sink.documents() if timeline_sink is not None else None
    )
    return ((config_key, policy), cell, metrics, documents)


#: Accepted by ``run_study(progress=...)``: ``True`` for a default
#: stderr reporter, or a factory ``(total_cells, events_per_cell) ->
#: StudyProgress`` for custom streams/clocks (tests use this).
ProgressSpec = Union[bool, Callable[[int, int], StudyProgress], None]


class _NullTextStream:
    """Swallow progress lines when live telemetry runs without
    ``progress=True`` (the bus still needs per-cell events)."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def run_study(
    params: Optional[StudyParameters] = None,
    configurations: Optional[Iterable[Configuration]] = None,
    policies: Sequence[str] = PAPER_POLICIES,
    jobs: Optional[int] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress: ProgressSpec = None,
    profiler: Optional["PhaseProfiler"] = None,
    capture_timelines: bool = False,
    bus: Optional["TelemetryBus"] = None,
) -> StudyResult:
    """Run the full study: every configuration against every policy.

    One failure trace and one access stream are generated per study and
    shared by every cell, exactly as the paper measures all policies in
    one simulation; so is the trace's view timeline (once per worker
    with ``jobs > 1``).  Returns a :class:`StudyResult` mapping keyed by
    ``(config_key, policy)``.

    A cell whose evaluation raises does **not** abort the study: the
    cell is retried once, and if it fails again it is recorded on the
    result's :attr:`StudyResult.failed_cells` (and omitted from the
    mapping) while every other cell still runs to completion.

    Args:
        params: Simulation parameters (paper defaults when omitted).
        configurations: Placements to evaluate (default: A–H).
        policies: Policy names (default: the paper's six columns).
        jobs: Worker processes for evaluating cells in parallel.  Cells
            are independent given the shared trace, so results are
            bit-identical to the sequential run; ``None`` or ``1`` stays
            in-process.  The trace and access stream are shipped once
            per worker (pool initializer), not once per cell.
        metrics: A registry collecting per-cell wall-clock and
            per-policy decision tallies (see :func:`run_cell`).  In the
            parallel path each worker tallies into its own registry and
            the results are merged here.
        progress: ``True`` to print a throttled progress line (cells
            done, events/s, ETA) to stderr as cells complete, or a
            factory building the :class:`~repro.obs.telemetry.
            StudyProgress` reporter.  The reporter runs in this process
            and is fed as results arrive, so it needs no cross-process
            state and stays correct under the parallel path (the
            ordered ``pool.map`` stream makes its lines trail the
            slowest outstanding cell, never over-report).
        profiler: A :class:`~repro.obs.prof.phases.PhaseProfiler`
            collecting phase timings (``study.trace``, ``study.access``,
            per-cell ``cell``) and the replay's hot-path counters.
            Profiling is in-process by design — it measures *this*
            interpreter — so it cannot be combined with ``jobs > 1``.
        capture_timelines: Fold every cell's quorum verdicts into
            availability timelines (streaming, O(spans) memory — no
            trace is stored) and attach them as
            :attr:`StudyResult.timelines`.  This is what ``repro study
            --record`` stores as ``timelines.json``; in the parallel
            path each worker folds its own cell and ships the finished
            spans back.
        bus: A :class:`~repro.obs.live.bus.TelemetryBus` receiving
            live events: ``study.phase`` transitions, ``study.start``,
            one ``study.cell`` per completion, throttled
            ``resource.sample`` readings and a terminal ``study.done``.
            Like every other hook, ``None`` (the default) costs
            nothing.  The bus lives in this process; in the parallel
            path workers additionally fold ``live.proc.*`` gauges
            (labelled by worker pid) into their per-cell registries,
            which merge through *metrics* as usual.

    Raises:
        ConfigurationError: for ``jobs < 1``, or a *profiler* combined
            with ``jobs > 1``.
    """
    if params is None:
        params = StudyParameters()
    if configurations is None:
        configurations = CONFIGURATIONS.values()
    configurations = list(configurations)
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if profiler is not None and jobs is not None and jobs > 1:
        raise ConfigurationError(
            "profiling is in-process; run the study with jobs=1 "
            f"(got jobs={jobs})"
        )
    _log.info(
        "study: %d configurations x %d policies, horizon %.0f days, "
        "seed %d, jobs=%s",
        len(configurations), len(policies), params.horizon, params.seed,
        jobs or 1,
    )
    topology = testbed_topology()
    if bus is not None:
        bus.publish("study.phase", phase="generate-trace")
    trace_phase = (
        profiler.phase("study.trace")
        if profiler is not None else contextlib.nullcontext()
    )
    with trace_phase:
        trace = generate_trace(testbed_profiles(), params.horizon, params.seed)
    if bus is not None:
        bus.publish("study.phase", phase="generate-access")
    access_phase = (
        profiler.phase("study.access")
        if profiler is not None else contextlib.nullcontext()
    )
    with access_phase:
        access_times = poisson_times(
            params.access_rate_per_day, trace.horizon, params.seed
        )
    total_cells = len(configurations) * len(policies)
    events_per_cell = len(trace.events) + len(access_times)
    reporter: Optional[StudyProgress] = None
    if progress:
        if callable(progress):
            reporter = progress(total_cells, events_per_cell)
            if bus is not None and reporter._bus is None:
                reporter._bus = bus
        else:
            reporter = StudyProgress(
                total_cells, events_per_cell, metrics=metrics, bus=bus
            )
    elif bus is not None:
        # No progress lines asked for, but the bus still needs one
        # study.cell event per completion: report into a null stream.
        reporter = StudyProgress(
            total_cells, events_per_cell, stream=_NullTextStream(),
            metrics=metrics, bus=bus,
        )
    sampler = None
    if bus is not None:
        from repro.obs.live.resources import ResourceSampler

        sampler = ResourceSampler()
        bus.publish(
            "study.start",
            total_cells=total_cells,
            events_per_cell=events_per_cell,
            configurations=[c.key for c in configurations],
            policies=list(policies),
            horizon=params.horizon,
            seed=params.seed,
            jobs=jobs or 1,
        )
        sampler.tick(bus=bus, metrics=metrics, events=0, force=True)
        bus.publish("study.phase", phase="evaluate")
    cells = StudyResult()
    failed: list[FailedCell] = []
    if capture_timelines:
        from repro.obs.registry.store import TimelineSink
    if jobs is None or jobs == 1:
        views = view_timeline(topology, trace)
        for configuration in configurations:
            for policy in policies:
                key = (configuration.key, policy)
                attempts = 0
                cell = None
                last_error = ""
                timeline_sink = TimelineSink() if capture_timelines else None
                retry_delays = _CELL_RETRY.delays()
                while cell is None:
                    attempts += 1
                    if timeline_sink is not None and attempts > 1:
                        timeline_sink = TimelineSink()  # drop partial spans
                    try:
                        cell = run_cell(
                            configuration,
                            policy,
                            params,
                            topology=topology,
                            trace=trace,
                            access_times=access_times,
                            metrics=metrics,
                            profiler=profiler,
                            extra_sinks=(
                                (timeline_sink,)
                                if timeline_sink is not None else ()
                            ),
                            views=views,
                        )
                    except Exception as exc:
                        last_error = _describe_error(exc)
                        _log.warning(
                            "cell %s/%s failed (attempt %d): %s",
                            configuration.key, policy, attempts, last_error,
                        )
                        delay = next(retry_delays, None)
                        if delay is None:
                            break
                        if delay > 0:
                            time.sleep(delay)
                if cell is None:
                    failed.append(FailedCell(
                        configuration.key, policy, last_error, attempts,
                    ))
                else:
                    _log.debug("cell %s/%s done: unavailability %.6f",
                               configuration.key, policy, cell.unavailability)
                    cells[key] = cell
                    if timeline_sink is not None:
                        cells.timelines.setdefault(
                            configuration.key, {}
                        ).update(timeline_sink.documents())
                if reporter is not None:
                    reporter.cell_done(key)
                if sampler is not None and reporter is not None:
                    sampler.tick(
                        bus=bus, metrics=metrics,
                        events=reporter.cells_done * events_per_cell,
                    )
        cells.failed_cells = tuple(failed)
        if bus is not None:
            bus.publish(
                "study.done",
                cells=len(cells),
                failed_cells=len(cells.failed_cells),
                ok=cells.ok,
            )
        return cells
    tasks = [
        (configuration.key, policy, metrics is not None, capture_timelines,
         bus is not None)
        for configuration in configurations
        for policy in policies
    ]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_worker,
        initargs=(params, trace, access_times),
    ) as pool:
        # Per-task futures (not pool.map): one worker raise must fail
        # one cell, not tear the whole ordered stream down.
        pending = {
            pool.submit(_run_cell_worker, task): (task, 1) for task in tasks
        }
        while pending:
            done, _ = concurrent.futures.wait(
                pending, return_when=concurrent.futures.FIRST_COMPLETED
            )
            for future in done:
                task, attempt = pending.pop(future)
                key = (task[0], task[1])
                try:
                    _, cell, cell_metrics, cell_timelines = future.result()
                except Exception as exc:
                    error = _describe_error(exc)
                    _log.warning("cell %s/%s failed (attempt %d): %s",
                                 key[0], key[1], attempt, error)
                    if attempt < (_CELL_RETRY.max_attempts or 1):
                        try:
                            retry = pool.submit(_run_cell_worker, task)
                        except Exception as submit_exc:
                            # The pool itself broke; record and move on.
                            failed.append(FailedCell(
                                key[0], key[1],
                                _describe_error(submit_exc), attempt,
                            ))
                        else:
                            pending[retry] = (task, attempt + 1)
                            continue
                    else:
                        failed.append(FailedCell(
                            key[0], key[1], error, attempt,
                        ))
                    if reporter is not None:
                        reporter.cell_done(key)
                    continue
                _log.debug("cell %s/%s done: unavailability %.6f",
                           key[0], key[1], cell.unavailability)
                cells[key] = cell
                if metrics is not None and cell_metrics is not None:
                    metrics.merge(cell_metrics)
                if cell_timelines is not None:
                    cells.timelines.setdefault(key[0], {}).update(
                        cell_timelines
                    )
                if reporter is not None:
                    reporter.cell_done(key)
                if sampler is not None and reporter is not None:
                    sampler.tick(
                        bus=bus, metrics=metrics,
                        events=reporter.cells_done * events_per_cell,
                    )
    cells.failed_cells = tuple(failed)
    if bus is not None:
        bus.publish(
            "study.done",
            cells=len(cells),
            failed_cells=len(cells.failed_cells),
            ok=cells.ok,
        )
    return cells
