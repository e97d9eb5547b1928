"""Replaying one failure trace against one consistency policy.

The measurement model (DESIGN.md §3):

* The file is *available at time t* iff an access arriving at *t* in some
  partition block would be granted — a pure probe of (protocol state,
  network view) that never mutates state.
* Eager protocols (MCV, DV, LDV, TDV) synchronise after **every** site
  transition, modelling the connection vector's instantaneous state.
* Optimistic protocols (ODV, OTDV) synchronise only at **access epochs**
  (default: Poisson, one access per day).
* Between events the availability verdict cannot change, so the tracker
  integrates downtime exactly.
* The verdict stands until the view or the replica state changes, and
  ``synchronize`` is idempotent: the replay evaluates once per event,
  and back-to-back accesses under one view are one synchronisation.
"""

from __future__ import annotations

import contextlib
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from operator import le
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.prof.phases import PhaseProfiler
    from repro.obs.tracer import Tracer

from repro.core.base import VotingProtocol
from repro.core.registry import make_protocol
from repro.errors import ConfigurationError
from repro.failures.trace import FailureTrace
from repro.net.sites import site_mask
from repro.net.topology import Topology
from repro.net.views import NetworkView
from repro.replica.state import ReplicaSet
from repro.stats.batch_means import BatchMeans, ConfidenceInterval
from repro.stats.summaries import quantile
from repro.stats.tracker import AvailabilityTracker

__all__ = [
    "EvaluationResult",
    "business_hours_times",
    "evaluate_policy",
    "periodic_times",
    "poisson_times",
    "view_timeline",
]


def poisson_times(rate_per_day: float, horizon: float, seed: int) -> tuple[float, ...]:
    """Access epochs of a Poisson process with the given daily rate."""
    if rate_per_day <= 0:
        raise ConfigurationError(f"access rate must be > 0, got {rate_per_day}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")
    rng = random.Random(f"access:{seed}")
    times: list[float] = []
    t = 0.0
    mean_gap = 1.0 / rate_per_day
    while True:
        t += -mean_gap * math.log(1.0 - rng.random())
        if t >= horizon:
            return tuple(times)
        times.append(t)


def business_hours_times(
    per_day: float,
    horizon: float,
    seed: int,
    day_start: float = 8.0 / 24.0,
    day_end: float = 18.0 / 24.0,
) -> tuple[float, ...]:
    """Access epochs confined to a daily working window.

    *per_day* accesses are placed uniformly at random inside each day's
    ``[day_start, day_end)`` window — the realistic pattern for the
    paper's departmental files, and the stress case for optimistic
    protocols, whose state can go a whole night without refresh.
    """
    if per_day <= 0:
        raise ConfigurationError(f"accesses per day must be > 0, got {per_day}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")
    if not 0.0 <= day_start < day_end <= 1.0:
        raise ConfigurationError(
            f"need 0 <= day_start < day_end <= 1; got [{day_start}, {day_end}]"
        )
    rng = random.Random(f"business:{seed}")
    count_per_day = max(1, round(per_day))
    times: list[float] = []
    day = 0
    while day < horizon:
        for _ in range(count_per_day):
            t = day + day_start + rng.random() * (day_end - day_start)
            if 0 < t < horizon:
                times.append(t)
        day += 1
    times.sort()
    return tuple(times)


def periodic_times(
    period_days: float, horizon: float, offset: float = 0.0
) -> tuple[float, ...]:
    """Deterministic access epochs every *period_days* (e.g. a nightly
    batch job touching the file), the alternative to :func:`poisson_times`."""
    if period_days <= 0:
        raise ConfigurationError(f"period must be > 0, got {period_days}")
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {horizon}")
    if not 0.0 <= offset < period_days:
        raise ConfigurationError(
            f"offset must be in [0, period); got {offset} of {period_days}"
        )
    times = []
    k = 0 if offset > 0 else 1
    while True:
        t = offset + k * period_days
        if t >= horizon:
            return tuple(times)
        if t > 0:
            times.append(t)
        k += 1


@dataclass(frozen=True)
class EvaluationResult:
    """Availability statistics of one (trace, policy, placement) run.

    Attributes:
        policy: Policy abbreviation.
        unavailability: Fraction of post-warm-up time the file was
            inaccessible (a Table 2 cell).
        mean_down_duration: Mean length of an unavailable period, in days
            (a Table 3 cell); 0.0 when the file never went down.
        down_periods: Number of unavailable periods observed.
        observed_time: Length of the post-warm-up window, in days.
        interval: 95 % batch-means confidence interval on unavailability.
        committed_operations: Highest operation number reached by any
            copy — a proxy for the protocol's state-update traffic.
        synchronizations: Transitions synchronised (eager policies) or
            accesses served (optimistic ones).  Every access counts,
            including one the replay carried without calling the
            protocol because it directly followed another access under
            the same view.
    """

    policy: str
    unavailability: float
    mean_down_duration: float
    down_periods: int
    observed_time: float
    interval: ConfidenceInterval
    committed_operations: int
    synchronizations: int
    down_durations: tuple[float, ...] = ()

    @property
    def availability(self) -> float:
        return 1.0 - self.unavailability

    @property
    def mean_time_between_outages(self) -> float:
        """Mean time between the starts of unavailable periods, in days —
        the file-level reliability figure (``inf`` if never unavailable)."""
        if self.down_periods == 0:
            return math.inf
        return self.observed_time / self.down_periods

    def down_duration_quantile(self, q: float) -> float:
        """Quantile of the outage-duration distribution, in days.

        Table 3 reports only the mean; tails matter operationally (a
        p95 of a week reads very differently from a p95 of an hour).
        Linear interpolation between order statistics; 0.0 when the file
        never went down.

        Raises:
            ConfigurationError: for q outside [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self.down_durations:
            return 0.0
        return quantile(sorted(self.down_durations), q)


#: Either a registry abbreviation or a factory building a protocol over a
#: replica set (for extensions such as witnesses or weighted voting).
PolicySpec = Union[str, Callable[[ReplicaSet], VotingProtocol]]


def view_timeline(
    topology: Topology, trace: FailureTrace
) -> tuple[NetworkView, ...]:
    """The network view before the first transition of *trace* and after
    each one: ``len(trace.events) + 1`` views, entry ``i`` standing from
    event ``i - 1`` until event ``i``.

    It depends on the topology and the trace only, so a study builds it
    once and every cell indexes it (``evaluate_policy(views=...)``).  A
    trace revisits few distinct up-sets; each is snapshotted once and
    the view object shared.
    """
    up = site_mask(trace.site_ids)
    by_up = {up: topology.view(up)}
    views = [by_up[up]]
    for event in trace.events:
        if event.up:
            up |= 1 << event.site_id
        else:
            up &= ~(1 << event.site_id)
        view = by_up.get(up)
        if view is None:
            view = by_up[up] = topology.view(up)
        views.append(view)
    return tuple(views)


def _check_access_times(access_times: Sequence[float], horizon: float) -> None:
    """Access epochs must be sorted and inside ``(0, horizon)``: the
    replay consumes them in order and never looks back."""
    if not access_times:
        return
    if not all(map(le, access_times, access_times[1:])):
        raise ConfigurationError("access_times must be sorted")
    if not (access_times[0] > 0 and access_times[-1] < horizon):
        raise ConfigurationError(
            f"access_times must lie inside (0, {horizon}); got "
            f"[{access_times[0]}, {access_times[-1]}]"
        )


def evaluate_policy(
    policy: PolicySpec,
    topology: Topology,
    copy_sites: frozenset[int],
    trace: FailureTrace,
    warmup: float = 360.0,
    batches: int = 20,
    access_times: tuple[float, ...] = (),
    tracer: Optional["Tracer"] = None,
    profiler: Optional["PhaseProfiler"] = None,
    views: Optional[Sequence[NetworkView]] = None,
) -> EvaluationResult:
    """Replay *trace* against one policy and measure availability.

    The protocol is called only when the (view, replica state) pair can
    have changed: once per site transition, and once for the first
    access after a transition.  An access that directly follows another
    access finds a ``synchronize`` fixpoint under an unchanged view; it
    is counted and carried.

    Args:
        policy: Abbreviation accepted by :func:`repro.core.make_protocol`.
        topology: The network the sites live on.
        copy_sites: Sites holding physical copies (all must be in the
            topology and the trace).
        trace: The shared failure history.
        warmup: Transient discarded before measurement, in days (the
            paper uses 360).
        batches: Number of equal-time batches for the confidence interval.
        access_times: Access epochs, sorted and inside ``(0, horizon)``;
            required for optimistic policies, ignored by eager ones.
        tracer: Attached to the protocol for the replay, so every quorum
            test emits a decision record (``None``, the default, adds no
            per-event work).  A traced replay carries no access: each
            one runs, so each keeps its decision record.
        profiler: Attached to the protocol for the replay and fed the
            hot-path counts of the replay (site transitions and
            accesses, carried ones included); the whole replay is timed
            as a ``replay`` phase.  ``None`` (the default) adds no
            per-event work — the check is hoisted out of the loop.
        views: ``view_timeline(topology, trace)``, when the caller
            replays several policies over one trace and has built it
            already; built here otherwise.
    """
    unknown = copy_sites - topology.site_ids
    if unknown:
        raise ConfigurationError(f"copy sites {sorted(unknown)} not in topology")
    missing = copy_sites - trace.site_ids
    if missing:
        raise ConfigurationError(f"copy sites {sorted(missing)} not in trace")
    if warmup < 0 or warmup >= trace.horizon:
        raise ConfigurationError(
            f"warmup must be in [0, horizon); got {warmup} of {trace.horizon}"
        )
    if batches < 1:
        raise ConfigurationError(f"batches must be >= 1, got {batches}")
    _check_access_times(access_times, trace.horizon)
    trace_events = trace.events
    if views is None:
        views = view_timeline(topology, trace)
    elif len(views) != len(trace_events) + 1:
        raise ConfigurationError(
            f"views must hold one view per transition plus the initial one; "
            f"got {len(views)} for {len(trace_events)} transitions"
        )

    replicas = ReplicaSet(copy_sites)
    if isinstance(policy, str):
        protocol = make_protocol(policy, replicas)
    else:
        protocol = policy(replicas)
    if tracer is not None:
        protocol.attach_tracer(tracer)
    if profiler is not None:
        protocol.attach_profiler(profiler)
    if not protocol.eager and not access_times:
        raise ConfigurationError(
            f"{protocol.name} is optimistic; supply access_times "
            "(e.g. poisson_times(1.0, trace.horizon, seed))"
        )

    if tracer is not None:
        tracer.set_time(0.0)
    tracker = AvailabilityTracker(
        0.0,
        initially_up=protocol.is_available(views[0]),
        warmup=warmup,
        keep_periods=True,
    )

    n_trace = len(trace_events)
    if protocol.eager:
        accesses: Sequence[float] = ()
        after_transition = protocol.synchronize
        synchronizations = n_trace
    else:
        # Restarting sites run their own RECOVER loops without waiting
        # for an access (see VotingProtocol.recover_stale); quorum
        # adjustment still waits for the access stream.
        accesses = access_times
        after_transition = protocol.recover_stale
        synchronizations = 0
    # Hoisted: a profiler cannot (re)attach mid-replay, so the disabled
    # path pays nothing inside the loop.
    profiling = profiler is not None
    replay_phase = (
        profiler.phase("replay", policy=protocol.name)
        if profiling else contextlib.nullcontext()
    )
    with replay_phase:
        # Epoch i runs under views[i]: transition i - 1 opens it, then
        # come the accesses before transition i.  On an exact tie the
        # transition goes first, so the access observes the
        # post-transition network.
        j = 0
        for i, view in enumerate(views):
            if i:
                now = trace_events[i - 1].time
                if tracer is not None:
                    tracer.set_time(now)
                if profiling:
                    profiler.count("replay.transitions")
                tracker.set_state(now, after_transition(view).granted)
            end = trace_events[i].time if i < n_trace else math.inf
            k = bisect_left(accesses, end, j)
            if k > j:
                # The first access of the epoch synchronises; the rest
                # find a fixpoint under an unchanged view and are carried
                # — unless traced, when each runs for its decision record.
                run_until = k if tracer is not None else j + 1
                for now in accesses[j:run_until]:
                    if tracer is not None:
                        tracer.set_time(now)
                    tracker.set_state(now, protocol.synchronize(view).granted)
                if profiling:
                    profiler.count("replay.accesses", k - j)
                synchronizations += k - j
                j = k
    tracker.finish(trace.horizon)

    interval = _batch_interval(tracker, warmup, trace.horizon, batches)
    committed = max(replicas.state(s).operation for s in copy_sites)
    return EvaluationResult(
        policy=protocol.name,
        unavailability=tracker.unavailability(),
        mean_down_duration=tracker.mean_down_duration(),
        down_periods=tracker.down_period_count,
        observed_time=tracker.observed_time,
        interval=interval,
        committed_operations=committed,
        synchronizations=synchronizations,
        down_durations=tuple(p.duration for p in tracker.periods),
    )


def _batch_interval(
    tracker: AvailabilityTracker,
    warmup: float,
    horizon: float,
    batches: int,
) -> ConfidenceInterval:
    """Per-batch unavailability means over equal spans of observed time."""
    span = (horizon - warmup) / batches
    means = BatchMeans()
    periods = tracker.periods  # a fresh tuple per read
    for k in range(batches):
        lo = warmup + k * span
        hi = lo + span
        down = 0.0
        for period in periods:
            clip = period.clipped(lo, hi)
            if clip is not None:
                down += clip.duration
        means.add(down / span)
    return means.interval()
