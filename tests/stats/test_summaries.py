"""Unit tests for running summary statistics."""

import math
import random

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.stats.summaries import RunningStats, quantile


class TestRunningStats:
    def test_mean_and_count(self):
        stats = RunningStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.total == 10.0

    def test_variance_matches_two_pass(self):
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stats = RunningStats()
        stats.extend(data)
        mean = sum(data) / len(data)
        expected = sum((x - mean) ** 2 for x in data) / (len(data) - 1)
        assert stats.variance == pytest.approx(expected)
        assert stats.stdev == pytest.approx(math.sqrt(expected))

    def test_extrema(self):
        stats = RunningStats()
        stats.extend([3.0, -1.0, 7.0])
        assert stats.minimum == -1.0
        assert stats.maximum == 7.0

    def test_empty_raises(self):
        stats = RunningStats()
        with pytest.raises(ConfigurationError):
            _ = stats.mean
        with pytest.raises(ConfigurationError):
            _ = stats.minimum

    def test_variance_needs_two(self):
        stats = RunningStats()
        stats.add(1.0)
        with pytest.raises(ConfigurationError):
            _ = stats.variance

    def test_numerical_stability_with_large_offset(self):
        stats = RunningStats()
        base = 1e12
        stats.extend([base + x for x in (1.0, 2.0, 3.0)])
        assert stats.variance == pytest.approx(1.0, rel=1e-6)


class TestMerge:
    def test_merge_equals_single_pass(self):
        rng = random.Random(9)
        data = [rng.random() for _ in range(100)]
        left = RunningStats()
        right = RunningStats()
        left.extend(data[:37])
        right.extend(data[37:])
        merged = left.merge(right)
        whole = RunningStats()
        whole.extend(data)
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean)
        assert merged.variance == pytest.approx(whole.variance)
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum

    def test_merge_with_empty(self):
        stats = RunningStats()
        stats.extend([1.0, 2.0])
        merged = stats.merge(RunningStats())
        assert merged.count == 2
        assert merged.mean == 1.5
        merged2 = RunningStats().merge(stats)
        assert merged2.count == 2

    def test_merge_does_not_mutate_inputs(self):
        a = RunningStats()
        a.add(1.0)
        b = RunningStats()
        b.add(3.0)
        a.merge(b)
        assert a.count == 1
        assert b.count == 1


def _reference_quantile(values, q):
    """The formula each caller of :func:`quantile` used to carry."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    index = min(int(position), len(ordered) - 2)
    fraction = position - index
    return ordered[index] + fraction * (ordered[index + 1] - ordered[index])


class TestQuantile:
    """The one linear-interpolation quantile, and its three callers."""

    @staticmethod
    def _callers(values, q):
        from repro.experiments.evaluator import EvaluationResult
        from repro.obs.metrics import Histogram
        from repro.stats.distributions import Empirical

        histogram = Histogram(reservoir_size=len(values))
        for value in values:
            histogram.observe(value)
        result = types.SimpleNamespace(down_durations=list(values))
        return {
            "quantile": quantile(sorted(values), q),
            "histogram": histogram.quantile(q),
            "empirical": Empirical(values).quantile(q),
            "evaluator": EvaluationResult.down_duration_quantile(result, q),
        }

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1, max_size=60,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_the_old_formula(self, values, q):
        expected = _reference_quantile(values, q)
        for name, got in self._callers(values, q).items():
            assert got == expected, name

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 1.0])
    def test_one_element(self, q):
        assert set(self._callers([3.5], q).values()) == {3.5}

    def test_endpoints_are_the_extremes(self):
        values = [4.0, 1.0, 9.0, 2.5]
        assert set(self._callers(values, 0.0).values()) == {1.0}
        assert set(self._callers(values, 1.0).values()) == {9.0}

    def test_callers_keep_their_own_range_checks(self):
        from repro.experiments.evaluator import EvaluationResult
        from repro.obs.metrics import Histogram
        from repro.stats.distributions import Empirical

        with pytest.raises(ValueError):
            Histogram().quantile(1.5)
        with pytest.raises(ConfigurationError):
            Empirical([1.0]).quantile(-0.1)
        empty = types.SimpleNamespace(down_durations=[])
        with pytest.raises(ConfigurationError):
            EvaluationResult.down_duration_quantile(empty, 2.0)
        assert Histogram().quantile(0.5) == 0.0
        assert EvaluationResult.down_duration_quantile(empty, 0.5) == 0.0
