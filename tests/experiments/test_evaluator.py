"""Unit tests for the trace evaluator, on hand-built traces where the
expected unavailability can be computed by hand."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.evaluator import (
    evaluate_policy,
    periodic_times,
    poisson_times,
    view_timeline,
)
from repro.failures.trace import FailureTrace, TraceEvent
from repro.net.topology import single_segment


def _trace(events, horizon=1000.0, sites=(1, 2, 3)):
    return FailureTrace(sites, [TraceEvent(*e) for e in events], horizon)


@pytest.fixture
def lan3():
    return single_segment(3)


class TestPoissonTimes:
    def test_rate_controls_density(self):
        times = poisson_times(1.0, 10_000.0, seed=1)
        assert 9_000 <= len(times) <= 11_000

    def test_times_sorted_and_in_range(self):
        times = poisson_times(0.5, 1000.0, seed=2)
        assert list(times) == sorted(times)
        assert all(0 < t < 1000.0 for t in times)

    def test_deterministic_per_seed(self):
        assert poisson_times(1.0, 100.0, 7) == poisson_times(1.0, 100.0, 7)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            poisson_times(0.0, 100.0, 1)
        with pytest.raises(ConfigurationError):
            poisson_times(1.0, 0.0, 1)


class TestPeriodicTimes:
    def test_regular_schedule(self):
        assert periodic_times(2.0, 7.0) == (2.0, 4.0, 6.0)

    def test_offset_shifts_the_grid(self):
        assert periodic_times(2.0, 7.0, offset=0.5) == (0.5, 2.5, 4.5, 6.5)

    def test_epoch_at_zero_excluded(self):
        assert 0.0 not in periodic_times(1.0, 3.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            periodic_times(0.0, 10.0)
        with pytest.raises(ConfigurationError):
            periodic_times(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            periodic_times(1.0, 10.0, offset=1.5)

    def test_usable_as_access_stream(self, lan3):
        trace = _trace([(100.0, 3, False)])
        result = evaluate_policy(
            "ODV", lan3, frozenset({1, 2, 3}), trace,
            warmup=0.0, batches=1,
            access_times=periodic_times(1.0, 1000.0),
        )
        assert result.unavailability == 0.0


class TestBusinessHoursTimes:
    def test_epochs_inside_the_window(self):
        from repro.experiments.evaluator import business_hours_times

        times = business_hours_times(3, 30.0, seed=1)
        for t in times:
            fraction = t % 1.0
            assert 8.0 / 24.0 <= fraction < 18.0 / 24.0

    def test_count_per_day(self):
        from repro.experiments.evaluator import business_hours_times

        times = business_hours_times(3, 30.0, seed=1)
        assert len(times) == 90

    def test_sorted_and_deterministic(self):
        from repro.experiments.evaluator import business_hours_times

        a = business_hours_times(2, 20.0, seed=9)
        b = business_hours_times(2, 20.0, seed=9)
        assert a == b
        assert list(a) == sorted(a)

    def test_validation(self):
        from repro.experiments.evaluator import business_hours_times

        with pytest.raises(ConfigurationError):
            business_hours_times(0, 10.0, 1)
        with pytest.raises(ConfigurationError):
            business_hours_times(1, 0.0, 1)
        with pytest.raises(ConfigurationError):
            business_hours_times(1, 10.0, 1, day_start=0.9, day_end=0.5)


class TestDownDurationQuantiles:
    def test_quantiles_from_known_periods(self, lan3):
        trace = _trace([
            (100.0, 1, False), (110.0, 1, True),   # 10 days (both down)
            (300.0, 1, False), (330.0, 1, True),   # 30 days
            (500.0, 1, False), (520.0, 1, True),   # 20 days
        ])
        # Copies {1} only: the file is down exactly when site 1 is.
        result = evaluate_policy("MCV", lan3, frozenset({1}), trace,
                                 warmup=0.0, batches=1)
        assert sorted(result.down_durations) == [10.0, 20.0, 30.0]
        assert result.down_duration_quantile(0.0) == 10.0
        assert result.down_duration_quantile(0.5) == 20.0
        assert result.down_duration_quantile(1.0) == 30.0
        assert result.down_duration_quantile(0.75) == pytest.approx(25.0)

    def test_no_outages_gives_zero(self, lan3):
        trace = _trace([])
        result = evaluate_policy("MCV", lan3, frozenset({1, 2, 3}), trace,
                                 warmup=0.0, batches=1)
        assert result.down_duration_quantile(0.95) == 0.0

    def test_invalid_quantile_rejected(self, lan3):
        trace = _trace([])
        result = evaluate_policy("MCV", lan3, frozenset({1}), trace,
                                 warmup=0.0, batches=1)
        with pytest.raises(ConfigurationError):
            result.down_duration_quantile(1.5)


class TestHandComputedUnavailability:
    def test_mcv_two_of_three_down_interval(self, lan3):
        """Copies {1,2,3}; sites 1 and 2 down together over [500, 600):
        only then is MCV's majority lost: unavailability 0.1."""
        trace = _trace([
            (400.0, 1, False),
            (500.0, 2, False),
            (600.0, 1, True),
            (650.0, 2, True),
        ])
        result = evaluate_policy("MCV", lan3, frozenset({1, 2, 3}), trace,
                                 warmup=0.0, batches=1)
        assert result.unavailability == pytest.approx(0.1)
        assert result.down_periods == 1
        assert result.mean_down_duration == pytest.approx(100.0)

    def test_ldv_survives_the_same_history(self, lan3):
        """Eager LDV shrinks to {2,3} when 1 fails, then to {3} ... via
        tie? {2,3} -> 2 fails -> {3} is half of {2,3} without max 2 —
        wait: P={2,3}, survivor 3, max is 2: denied.  Unavailable
        [500,600) until 1... 1 returns at 600 but is stale and cannot
        rejoin without a majority of {2,3}.  2 returns at 650: available
        again.  Unavailability = 150/1000."""
        trace = _trace([
            (400.0, 1, False),
            (500.0, 2, False),
            (600.0, 1, True),
            (650.0, 2, True),
        ])
        result = evaluate_policy("LDV", lan3, frozenset({1, 2, 3}), trace,
                                 warmup=0.0, batches=1)
        assert result.unavailability == pytest.approx(0.15)
        assert result.down_periods == 1
        assert result.mean_down_duration == pytest.approx(150.0)

    def test_tdv_single_segment_never_down_here(self, lan3):
        """Same history under TDV: segment mates carry votes, and a
        member of the newest lineage is always up — no downtime."""
        trace = _trace([
            (400.0, 1, False),
            (500.0, 2, False),
            (600.0, 1, True),
            (650.0, 2, True),
        ])
        result = evaluate_policy("TDV", lan3, frozenset({1, 2, 3}), trace,
                                 warmup=0.0, batches=1)
        assert result.unavailability == 0.0
        assert result.down_periods == 0
        assert result.mean_down_duration == 0.0

    def test_odv_depends_on_access_times(self, lan3):
        """Sites 2, 3 fail; 1 survives.  If an access shrank the quorum
        to {1,2} after 3's failure, losing 2 leaves 1 = half with max ->
        available.  Without any access, {1} of {1,2,3} is a minority ->
        unavailable."""
        events = [
            (100.0, 3, False),
            (200.0, 2, False),
        ]
        with_access = evaluate_policy(
            "ODV", lan3, frozenset({1, 2, 3}), _trace(events),
            warmup=0.0, batches=1, access_times=(150.0,),
        )
        without_access = evaluate_policy(
            "ODV", lan3, frozenset({1, 2, 3}), _trace(events),
            warmup=0.0, batches=1, access_times=(50.0,),
        )
        assert with_access.unavailability == pytest.approx(0.0)
        # Unavailable from 200 to the 1000-day horizon: 0.8.
        assert without_access.unavailability == pytest.approx(0.8)

    def test_optimistic_requires_access_times(self, lan3):
        trace = _trace([])
        with pytest.raises(ConfigurationError):
            evaluate_policy("ODV", lan3, frozenset({1, 2, 3}), trace,
                            warmup=0.0, batches=1)

    def test_warmup_is_excluded(self, lan3):
        trace = _trace([(100.0, 1, False), (150.0, 1, True),
                        (400.0, 1, False), (450.0, 1, True),
                        (470.0, 2, False), (520.0, 2, True)])
        # Make MCV unavailable only when two are down: single failures
        # never matter for 3 copies; use copies {1, 2} instead: one
        # failure of either site kills the majority-of-two... actually
        # majority of 2 is 2 (no tie-break for odd... 2 copies: quorum
        # 2); with tie-break {1} suffices iff it holds site 1.
        result = evaluate_policy("MCV", lan3, frozenset({1, 2}), trace,
                                 warmup=300.0, batches=1)
        # Post-warmup downtime: site1 down [400,450) and site2 down
        # [470,520): site 1 down -> block lacks max? With tie-break,
        # {2} alone is denied (no site 1), {1} alone is granted.
        assert result.unavailability == pytest.approx(50.0 / 700.0)
        assert result.down_periods == 1

    def test_point_to_point_topologies_are_supported(self):
        """The evaluator is topology-agnostic: a ring WAN with failing
        sites works exactly like a segmented LAN."""
        from repro.net.sites import Site
        from repro.net.topology import PointToPointTopology

        ring = PointToPointTopology(
            [Site(i) for i in (1, 2, 3)],
            [(1, 2), (2, 3), (1, 3)],
        )
        trace = _trace([(100.0, 2, False), (150.0, 2, True)])
        result = evaluate_policy("LDV", ring, frozenset({1, 2, 3}), trace,
                                 warmup=0.0, batches=1)
        assert result.unavailability == 0.0  # one failure never hurts

    def test_validation_errors(self, lan3):
        trace = _trace([])
        with pytest.raises(ConfigurationError):
            evaluate_policy("MCV", lan3, frozenset({1, 99}), trace)
        with pytest.raises(ConfigurationError):
            evaluate_policy("MCV", lan3, frozenset({1}), trace,
                            warmup=2000.0)
        with pytest.raises(ConfigurationError):
            evaluate_policy("MCV", lan3, frozenset({1}), trace, batches=0)

    @pytest.mark.parametrize("times", [
        (30.0, 20.0, 40.0),   # unsorted, and the verdict never flips
        (0.0, 10.0),          # epoch at the origin
        (10.0, 1000.0),       # epoch at the horizon
        (10.0, float("nan")),
    ])
    def test_access_times_must_be_sorted_and_inside_the_horizon(
            self, lan3, times):
        with pytest.raises(ConfigurationError, match="access_times"):
            evaluate_policy("ODV", lan3, frozenset({1, 2, 3}), _trace([]),
                            warmup=0.0, batches=1, access_times=times)

    def test_repeated_access_epochs_are_accepted(self, lan3):
        result = evaluate_policy(
            "ODV", lan3, frozenset({1, 2, 3}), _trace([]),
            warmup=0.0, batches=1, access_times=(10.0, 10.0, 20.0))
        assert result.synchronizations == 3

    def test_views_must_match_the_trace(self, lan3):
        trace = _trace([(100.0, 3, False)])
        views = view_timeline(lan3, trace)
        assert [sorted(view.up) for view in views] == [[1, 2, 3], [1, 2]]
        with pytest.raises(ConfigurationError, match="views"):
            evaluate_policy("MCV", lan3, frozenset({1, 2, 3}), trace,
                            warmup=0.0, batches=1, views=views[:1])

    def test_simultaneous_event_and_access_orders_event_first(self, lan3):
        """A transition and an access at the same instant: the access
        observes the post-transition network (Priority semantics)."""
        # Site 3 fails at t=100 exactly when the access fires: the access
        # must see {1, 2} and shrink ODV's quorum accordingly.
        trace = _trace([(100.0, 3, False)])
        result = evaluate_policy(
            "ODV", lan3, frozenset({1, 2, 3}), trace,
            warmup=0.0, batches=1, access_times=(100.0,),
        )
        # With the quorum shrunk at t=100, losing 3 costs no downtime.
        assert result.unavailability == 0.0
        assert result.synchronizations == 1

    def test_interval_and_metadata_populated(self, lan3):
        trace = _trace([(100.0, 1, False), (150.0, 1, True)])
        result = evaluate_policy("LDV", lan3, frozenset({1, 2, 3}), trace,
                                 warmup=0.0, batches=10)
        assert result.interval.batches == 10
        assert result.observed_time == pytest.approx(1000.0)
        assert result.policy == "LDV"
        assert result.availability == pytest.approx(1.0 - result.unavailability)
        assert result.synchronizations == 2  # one per trace event
        assert result.committed_operations >= 2


class TestEvaluatesOnlyOnChange:
    """One quorum evaluation per event that can change the verdict; an
    access that directly follows another access is counted, not run."""

    #: Site 3 is down over [100, 200): 2 transitions, 3 epochs.
    EVENTS = [(100.0, 3, False), (200.0, 3, True)]
    #: Three accesses before, one during (at the tie), two after.
    ACCESSES = (10.0, 20.0, 30.0, 100.0, 300.0, 300.0)

    def _replay(self, lan3, policy, **hooks):
        return evaluate_policy(
            policy, lan3, frozenset({1, 2, 3}), _trace(self.EVENTS),
            warmup=0.0, batches=1, access_times=self.ACCESSES, **hooks)

    def test_synchronizations_count_every_access_carried_or_not(self, lan3):
        assert self._replay(lan3, "ODV").synchronizations == 6
        assert self._replay(lan3, "LDV").synchronizations == 2

    def test_profiler_counts_real_evaluations(self, lan3):
        from repro.obs.prof.phases import PhaseProfiler

        profiler = PhaseProfiler()
        self._replay(lan3, "ODV", profiler=profiler)
        counters = profiler.to_dict()["counters"]
        assert counters["replay.transitions"] == 2
        assert counters["replay.accesses"] == 6
        # The initial probe; one per transition plus the RECOVER of site
        # 3 at t=200; the first access of each epoch, plus the fresh
        # evaluation after the quorum adjustment at t=100.
        assert counters["quorum.evaluate.ODV"] == 1 + (2 + 1) + (3 + 1)

    def test_traced_replay_runs_every_access(self, lan3):
        from repro.obs.tracer import MemorySink, Tracer

        sink = MemorySink()
        traced = self._replay(lan3, "ODV", tracer=Tracer(sink))
        assert traced == self._replay(lan3, "ODV")
        verdicts = [r for r in sink.records
                    if r.kind in ("quorum.granted", "quorum.denied")]
        by_time = {}
        for record in verdicts:
            by_time[record.time] = by_time.get(record.time, 0) + 1
        # One decision record per evaluation: every access keeps its own
        # (two at t=300), and no post-synchronise probe repeats it.  At
        # t=100 the transition and the access each evaluate, and the
        # access's quorum adjustment is followed by a fresh evaluation.
        assert by_time == {0.0: 1, 10.0: 1, 20.0: 1, 30.0: 1, 100.0: 3,
                           200.0: 3, 300.0: 2}
