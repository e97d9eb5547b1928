"""Unit tests for the study runner."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.configs import CONFIGURATIONS
from repro.experiments.runner import (
    HORIZON_ENV,
    StudyParameters,
    default_horizon,
    run_cell,
    run_study,
)
import repro.experiments.runner as runner_module


@pytest.fixture
def quick():
    """A deliberately small study for test runtime."""
    return StudyParameters(horizon=3000.0, warmup=360.0, batches=4, seed=11)


class TestStudyParameters:
    def test_defaults_follow_the_paper(self):
        params = StudyParameters(horizon=10_000.0)
        assert params.warmup == 360.0
        assert params.access_rate_per_day == 1.0

    def test_horizon_must_exceed_warmup(self):
        with pytest.raises(ConfigurationError):
            StudyParameters(horizon=100.0, warmup=360.0)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(HORIZON_ENV, "12345")
        assert default_horizon() == 12345.0

    def test_env_invalid_values_rejected(self, monkeypatch):
        monkeypatch.setenv(HORIZON_ENV, "soon")
        with pytest.raises(ConfigurationError):
            default_horizon()
        monkeypatch.setenv(HORIZON_ENV, "-5")
        with pytest.raises(ConfigurationError):
            default_horizon()
        monkeypatch.setenv(HORIZON_ENV, "0")
        with pytest.raises(ConfigurationError):
            default_horizon()

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigurationError):
            StudyParameters(horizon=1000.0, warmup=-1.0)

    def test_non_positive_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            StudyParameters(horizon=0.0, warmup=0.0)
        with pytest.raises(ConfigurationError):
            StudyParameters(horizon=-10.0, warmup=0.0)

    def test_env_absent_uses_fallback(self, monkeypatch):
        monkeypatch.delenv(HORIZON_ENV, raising=False)
        assert default_horizon(fallback=7.0) == 7.0


class TestRunCell:
    def test_cell_result_fields(self, quick):
        cell = run_cell(CONFIGURATIONS["A"], "MCV", quick)
        assert cell.configuration.key == "A"
        assert cell.result.policy == "MCV"
        assert 0.0 <= cell.unavailability <= 1.0
        assert cell.mean_down_duration >= 0.0

    def test_deterministic_for_a_seed(self, quick):
        a = run_cell(CONFIGURATIONS["B"], "LDV", quick)
        b = run_cell(CONFIGURATIONS["B"], "LDV", quick)
        assert a.unavailability == b.unavailability

    def test_optimistic_cell_uses_access_stream(self, quick):
        cell = run_cell(CONFIGURATIONS["A"], "ODV", quick)
        assert cell.result.synchronizations > 0


class TestRunStudy:
    def test_full_grid_keys(self, quick):
        cells = run_study(quick, policies=("MCV", "LDV"))
        assert set(cells) == {
            (c, p) for c in "ABCDEFGH" for p in ("MCV", "LDV")
        }

    def test_subset_of_configurations(self, quick):
        cells = run_study(
            quick,
            configurations=[CONFIGURATIONS["A"]],
            policies=("MCV",),
        )
        assert set(cells) == {("A", "MCV")}

    def test_parallel_matches_sequential(self, quick):
        """jobs=2 must be bit-identical to the in-process run, in every
        field: each worker replays over its own view timeline."""
        policies = ("MCV", "LDV", "ODV", "OTDV")
        sequential = run_study(quick, policies=policies)
        parallel = run_study(quick, policies=policies, jobs=2)
        assert set(parallel) == set(sequential)
        for key, cell in sequential.items():
            assert parallel[key].result == cell.result

    def test_worker_builds_the_timeline_once(self, quick, monkeypatch):
        import repro.experiments.evaluator as evaluator_module
        from repro.failures.profiles import testbed_profiles
        from repro.failures.trace import generate_trace

        expected = run_cell(CONFIGURATIONS["H"], "ODV", quick).result
        trace = generate_trace(testbed_profiles(), quick.horizon, quick.seed)
        accesses = evaluator_module.poisson_times(
            1.0, trace.horizon, quick.seed)
        monkeypatch.setattr(runner_module, "_WORKER_CONTEXT", {})
        runner_module._init_worker(quick, trace, accesses)
        views = runner_module._WORKER_CONTEXT["views"]
        assert len(views) == len(trace.events) + 1
        monkeypatch.setattr(
            evaluator_module, "view_timeline",
            lambda *args: pytest.fail("a cell rebuilt the view timeline"))
        _, cell, _, _ = runner_module._run_cell_worker(
            ("H", "ODV", False, False, False))
        assert cell.result == expected

    def test_invalid_jobs_rejected(self, quick):
        with pytest.raises(ConfigurationError):
            run_study(quick, policies=("MCV",), jobs=0)

    def test_metrics_collects_cell_timings_and_decisions(self, quick):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        run_study(
            quick,
            configurations=[CONFIGURATIONS["A"], CONFIGURATIONS["B"]],
            policies=("MCV", "LDV"),
            metrics=metrics,
        )
        timings = [
            (labels, instrument)
            for name, labels, instrument in metrics.series()
            if name == "cell.seconds"
        ]
        assert len(timings) == 4
        assert all(instrument.count == 1 for _, instrument in timings)
        assert {labels["config"] for labels, _ in timings} == {"A", "B"}
        decision_kinds = {
            name for name, _, _ in metrics.series() if name != "cell.seconds"
        }
        assert "quorum.granted" in decision_kinds

    def test_parallel_metrics_match_sequential(self, quick):
        """Worker registries merged across processes must tally the same
        decisions as the in-process run."""
        from repro.obs.metrics import MetricsRegistry

        sequential = MetricsRegistry()
        parallel = MetricsRegistry()
        run_study(
            quick,
            configurations=[CONFIGURATIONS["A"]],
            policies=("MCV", "LDV"),
            metrics=sequential,
        )
        run_study(
            quick,
            configurations=[CONFIGURATIONS["A"]],
            policies=("MCV", "LDV"),
            metrics=parallel,
            jobs=2,
        )

        def counters(registry):
            return {
                (name, tuple(sorted(labels.items()))): instrument.value
                for name, labels, instrument in registry.series()
                if name != "cell.seconds"
            }

        assert counters(parallel) == counters(sequential)

    def test_metrics_do_not_change_results(self, quick):
        from repro.obs.metrics import MetricsRegistry

        plain = run_cell(CONFIGURATIONS["C"], "TDV", quick)
        metered = run_cell(CONFIGURATIONS["C"], "TDV", quick,
                           metrics=MetricsRegistry())
        assert metered.unavailability == plain.unavailability
        assert metered.result.down_periods == plain.result.down_periods

    def test_common_random_numbers_across_cells(self, quick):
        """A policy's result must not depend on which other policies ran."""
        alone = run_study(
            quick, configurations=[CONFIGURATIONS["A"]], policies=("LDV",)
        )[("A", "LDV")]
        together = run_study(
            quick,
            configurations=[CONFIGURATIONS["A"]],
            policies=("MCV", "LDV", "TDV"),
        )[("A", "LDV")]
        assert alone.unavailability == together.unavailability


class TestFailedCells:
    """A cell whose evaluation raises degrades gracefully: retried
    once, recorded, and never takes the rest of the study down."""

    def test_clean_study_is_ok(self, quick):
        cells = run_study(
            quick, configurations=[CONFIGURATIONS["A"]], policies=("MCV",)
        )
        assert cells.ok
        assert cells.failed_cells == ()

    def test_sequential_failure_recorded_not_raised(self, quick):
        cells = run_study(
            quick,
            configurations=[CONFIGURATIONS["A"]],
            policies=("LDV", "BOGUS"),
        )
        assert ("A", "LDV") in cells
        assert ("A", "BOGUS") not in cells
        assert not cells.ok
        assert len(cells.failed_cells) == 1
        failed = cells.failed_cells[0]
        assert (failed.config_key, failed.policy) == ("A", "BOGUS")
        assert failed.attempts == 2
        assert "ConfigurationError" in failed.error

    def test_transient_failure_retried_to_success(self, quick, monkeypatch):
        real_run_cell = runner_module.run_cell
        calls = {"count": 0}

        def flaky(configuration, policy, params, **kwargs):
            if policy == "LDV" and calls["count"] == 0:
                calls["count"] += 1
                raise RuntimeError("transient worker loss")
            return real_run_cell(configuration, policy, params, **kwargs)

        monkeypatch.setattr(runner_module, "run_cell", flaky)
        cells = run_study(
            quick, configurations=[CONFIGURATIONS["A"]], policies=("LDV",)
        )
        assert cells.ok
        assert ("A", "LDV") in cells
        assert calls["count"] == 1

    def test_parallel_failure_recorded_and_good_cells_survive(self, quick):
        sequential = run_study(
            quick, configurations=[CONFIGURATIONS["A"]], policies=("LDV",)
        )
        parallel = run_study(
            quick,
            configurations=[CONFIGURATIONS["A"], CONFIGURATIONS["B"]],
            policies=("LDV", "BOGUS"),
            jobs=2,
        )
        assert not parallel.ok
        assert {
            (f.config_key, f.policy) for f in parallel.failed_cells
        } == {("A", "BOGUS"), ("B", "BOGUS")}
        assert all(f.attempts == 2 for f in parallel.failed_cells)
        assert set(parallel) == {("A", "LDV"), ("B", "LDV")}
        # The surviving cells are still bit-identical to a clean run.
        assert (parallel[("A", "LDV")].unavailability
                == sequential[("A", "LDV")].unavailability)

    def test_failed_cell_to_dict(self, quick):
        cells = run_study(
            quick,
            configurations=[CONFIGURATIONS["A"]],
            policies=("BOGUS",),
        )
        payload = cells.failed_cells[0].to_dict()
        assert payload["config"] == "A"
        assert payload["policy"] == "BOGUS"
        assert payload["attempts"] == 2
        assert payload["error"]
