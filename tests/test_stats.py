"""Tests for the statistics substrate."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SignalError
from repro.stats.binomial import binomial_pmf, binomial_test_two_tailed
from repro.stats.contingency import DayLevelContingency
from repro.stats.descriptive import (
    fraction,
    fraction_multiple_of,
    mean,
    median,
    quantile,
)
from repro.stats.ecdf import ECDF
from tests.oracles import RollingMedian, rolling_median

scipy_stats = pytest.importorskip("scipy.stats")


class TestECDF:
    def test_basic_values(self):
        cdf = ECDF.from_samples([1, 2, 2, 4])
        assert cdf(0) == 0.0
        assert cdf(1) == 0.25
        assert cdf(2) == 0.75
        assert cdf(4) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(SignalError):
            ECDF.from_samples([])

    def test_median_and_quantiles(self):
        cdf = ECDF.from_samples([10, 20, 30, 40])
        assert cdf.quantile(0.25) == 10
        assert cdf.quantile(0.5) == 20
        assert cdf.quantile(1.0) == 40

    def test_quantile_bounds(self):
        cdf = ECDF.from_samples([1])
        with pytest.raises(SignalError):
            cdf.quantile(0.0)
        with pytest.raises(SignalError):
            cdf.quantile(1.5)

    def test_points_monotone_reaching_one(self):
        cdf = ECDF.from_samples([3, 1, 4, 1, 5])
        points = cdf.points()
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e9, max_value=1e9),
                    min_size=1, max_size=200),
           st.floats(min_value=0.01, max_value=1.0))
    def test_quantile_inverts_cdf(self, samples, q):
        cdf = ECDF.from_samples(samples)
        value = cdf.quantile(q)
        assert cdf(value) >= q - 1e-12
        # No smaller sample value reaches level q.
        smaller = [s for s in cdf.sorted_samples if s < value]
        if smaller:
            assert cdf(smaller[-1]) < q + 1e-9


class TestDescriptive:
    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([1, 2, 3, 4]) == 2.5

    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_empty_rejected(self):
        for fn in (median, mean):
            with pytest.raises(SignalError):
                fn([])

    def test_quantile_matches_numpy_lower_style(self):
        data = [5, 1, 9, 3, 7]
        assert quantile(data, 0.5) == 5.0

    def test_fraction(self):
        assert fraction([1, 2, 3, 4], lambda x: x % 2 == 0) == 0.5

    def test_fraction_multiple_of(self):
        values = [0.5, 1.0, 1.25, 2.0]
        assert fraction_multiple_of(values, 0.5) == 0.75

    def test_fraction_multiple_rejects_bad_step(self):
        with pytest.raises(SignalError):
            fraction_multiple_of([1.0], 0.0)


class TestRollingMedian:
    def test_window_eviction(self):
        tracker = RollingMedian(3)
        for value in (1, 100, 2, 3):
            tracker.push(value)
        # Window now holds 100, 2, 3.
        assert tracker.median == 3

    def test_empty_median_none(self):
        assert RollingMedian(5).median is None

    def test_rejects_bad_window(self):
        with pytest.raises(SignalError):
            RollingMedian(0)

    def test_rolling_median_is_trailing(self):
        values = [10, 10, 10, 0, 0]
        medians = rolling_median(values, window=3)
        assert medians[0] is None
        # Index 3's baseline is values 0..2, unaffected by the drop at 3.
        assert medians[3] == 10

    @given(st.lists(st.integers(min_value=-1000, max_value=1000),
                    min_size=1, max_size=120),
           st.integers(min_value=1, max_value=25))
    def test_matches_naive_computation(self, values, window):
        medians = rolling_median(values, window)
        for i in range(len(values)):
            window_values = values[max(0, i - window):i]
            if not window_values:
                assert medians[i] is None
            else:
                assert medians[i] == float(np.median(window_values))


class TestBinomial:
    def test_pmf_sums_to_one(self):
        total = sum(binomial_pmf(k, 20, 0.3) for k in range(21))
        assert abs(total - 1.0) < 1e-12

    def test_pmf_edge_probabilities(self):
        assert binomial_pmf(0, 10, 0.0) == 1.0
        assert binomial_pmf(10, 10, 1.0) == 1.0
        assert binomial_pmf(3, 10, 0.0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(SignalError):
            binomial_pmf(-1, 10, 0.5)
        with pytest.raises(SignalError):
            binomial_pmf(11, 10, 0.5)
        with pytest.raises(SignalError):
            binomial_test_two_tailed(1, 10, 1.5)

    @given(st.integers(min_value=0, max_value=60),
           st.integers(min_value=1, max_value=60),
           st.floats(min_value=0.01, max_value=0.99))
    def test_matches_scipy(self, k, n, p):
        if k > n:
            k = n
        ours = binomial_test_two_tailed(k, n, p)
        theirs = scipy_stats.binomtest(k, n, p).pvalue
        assert ours == pytest.approx(theirs, rel=1e-6, abs=1e-12)

    def test_paper_style_friday_deficit(self):
        # A strong deficit: 2 of 182 events on Fridays vs uniform 1/7.
        p = binomial_test_two_tailed(2, 182, 1 / 7)
        assert p < 0.00065


class TestContingency:
    def test_rates_basic(self):
        contingency = DayLevelContingency(["A", "B"], range(10))
        condition = {("A", 1), ("A", 2)}
        outcome = {("A", 1), ("B", 5)}
        rates = contingency.rates(condition, outcome)
        assert rates.condition_cells == 2
        assert rates.other_cells == 18
        assert rates.outcomes_on_condition == 1
        assert rates.outcomes_on_other == 1
        assert rates.rate_given_condition == 0.5
        assert rates.rate_given_not_condition == pytest.approx(1 / 18)

    def test_day_subset_restricts_universe(self):
        contingency = DayLevelContingency(["A"], range(10))
        condition = {("A", 1), ("A", 8)}
        outcome = {("A", 8)}
        rates = contingency.rates(condition, outcome,
                                  day_subset=frozenset(range(5)))
        assert rates.condition_cells == 1     # only day 1 kept
        assert rates.outcomes_on_condition == 0
        assert rates.outcomes_on_other == 0

    def test_risk_ratio_infinite_when_baseline_zero(self):
        contingency = DayLevelContingency(["A"], range(4))
        rates = contingency.rates({("A", 0)}, {("A", 0)})
        assert rates.risk_ratio == float("inf")

    def test_unknown_cells_ignored(self):
        contingency = DayLevelContingency(["A"], range(4))
        rates = contingency.rates({("Z", 0)}, {("A", 99)})
        assert rates.condition_cells == 0
        assert rates.outcomes_on_other == 0

    def test_empty_universe_rejected(self):
        with pytest.raises(SignalError):
            DayLevelContingency([], range(3))
