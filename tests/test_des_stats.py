"""Unit tests for the statistics collectors."""

import math
import statistics

import pytest

from repro.des.stats import RunningStats, TimeWeightedStat, combine_runs


class TestRunningStats:
    def test_empty(self):
        acc = RunningStats()
        assert acc.n == 0
        assert math.isnan(acc.mean)
        assert math.isnan(acc.variance)

    def test_single_observation(self):
        acc = RunningStats()
        acc.add(5.0)
        assert acc.mean == 5.0
        assert acc.min == acc.max == 5.0
        assert math.isnan(acc.variance)

    def test_matches_numpy(self, rng):
        # Reference values from the stdlib (the sample, ddof=1,
        # definitions numpy's var/std use with ddof=1).
        xs = [rng.gauss(10.0, 3.0) for _ in range(5_000)]
        acc = RunningStats()
        acc.extend(xs)
        assert acc.mean == pytest.approx(statistics.fmean(xs))
        assert acc.variance == pytest.approx(statistics.variance(xs))
        assert acc.stddev == pytest.approx(statistics.stdev(xs))
        assert acc.min == min(xs)
        assert acc.max == max(xs)
        assert acc.total == pytest.approx(sum(xs))

    def test_merge_equals_bulk(self, rng):
        xs = [rng.random() for _ in range(1_000)]
        ys = [rng.random() * 3 for _ in range(700)]
        a, b, bulk = RunningStats(), RunningStats(), RunningStats()
        a.extend(xs)
        b.extend(ys)
        bulk.extend(xs + ys)
        a.merge(b)
        assert a.n == bulk.n
        assert a.mean == pytest.approx(bulk.mean)
        assert a.variance == pytest.approx(bulk.variance)
        assert a.min == bulk.min
        assert a.max == bulk.max

    def test_merge_into_empty(self):
        a, b = RunningStats(), RunningStats()
        b.extend([1.0, 2.0, 3.0])
        a.merge(b)
        assert a.n == 3
        assert a.mean == 2.0

    def test_merge_empty_is_noop(self):
        a, b = RunningStats(), RunningStats()
        a.extend([1.0, 2.0])
        a.merge(b)
        assert a.n == 2

    def test_ci95_contains_true_mean_usually(self, rng):
        hits = 0
        for _ in range(60):
            acc = RunningStats()
            acc.extend(rng.gauss(0.0, 1.0) for _ in range(200))
            low, high = acc.ci95()
            if low <= 0.0 <= high:
                hits += 1
        assert hits >= 50  # ~95% coverage, loose bound

    def test_ci95_needs_two_points(self):
        acc = RunningStats()
        acc.add(1.0)
        low, high = acc.ci95()
        assert math.isnan(low) and math.isnan(high)


class TestTimeWeightedStat:
    def test_piecewise_constant_mean(self):
        tw = TimeWeightedStat(start=0.0, value=0.0)
        tw.update(2.0, 1.0)   # 0 over [0,2)
        tw.update(5.0, 0.0)   # 1 over [2,5)
        assert tw.mean(10.0) == pytest.approx(3.0 / 10.0)

    def test_current_value_extends_to_now(self):
        tw = TimeWeightedStat()
        tw.update(1.0, 4.0)
        assert tw.mean(3.0) == pytest.approx(4.0 * 2.0 / 3.0)
        assert tw.current == 4.0

    def test_time_going_backwards_rejected(self):
        tw = TimeWeightedStat()
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 0.0)

    def test_zero_span_is_nan(self):
        tw = TimeWeightedStat(start=2.0)
        assert math.isnan(tw.mean(2.0))


class TestCombineRuns:
    def test_basic(self):
        summary = combine_runs([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.n_runs == 3
        assert summary.low == 1.0
        assert summary.high == 3.0
        assert summary.stddev == pytest.approx(1.0)

    def test_single_run_has_zero_spread(self):
        summary = combine_runs([4.2])
        assert summary.mean == 4.2
        assert summary.stddev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_runs([])
