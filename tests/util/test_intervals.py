"""Tests for proportion intervals and the Eqn-4 lift lower bound."""

import math
from statistics import NormalDist

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from repro.util import intervals
from repro.util.intervals import (
    lift_lower_bound,
    lift_point_estimate,
    proportion_interval,
    wilson_interval,
)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.3 < high

    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_zero_successes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert 0.0 < high < 0.2

    def test_all_successes(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert 0.8 < low < 1.0

    def test_narrows_with_more_trials(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_higher_confidence_is_wider(self):
        mid = wilson_interval(30, 100, confidence=0.95)
        wide = wilson_interval(30, 100, confidence=0.99)
        assert wide[0] < mid[0] and wide[1] > mid[1]

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_bounds_always_ordered(self, successes, trials):
        if successes > trials:
            successes, trials = trials, successes
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= high <= 1.0


class TestProportionInterval:
    def test_normal_method(self):
        low, high = proportion_interval(30, 100, method="normal")
        assert low < 0.3 < high

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            proportion_interval(1, 2, method="bayes")

    def test_normal_zero_trials(self):
        assert proportion_interval(0, 0, method="normal") == (0.0, 1.0)

    @pytest.mark.parametrize("method", ["wilson", "normal"])
    @pytest.mark.parametrize("successes, trials", [(5, 3), (-1, 3), (0, -1)])
    def test_invalid_counts_rejected_by_both_methods(
        self, method, successes, trials
    ):
        # The normal method used to return (1.67, 1.0) for (5, 3) and
        # (0.0, -0.33) for (-1, 3).
        with pytest.raises(ValueError):
            proportion_interval(successes, trials, method=method)

    @pytest.mark.parametrize("method", ["wilson", "normal"])
    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.5])
    def test_confidence_outside_unit_interval_rejected(
        self, method, confidence
    ):
        # confidence=1.0 used to give (0.0, 1.0) only because the
        # quantile was inf and the terminals NaN.
        for successes, trials in ((1, 2), (0, 0)):
            with pytest.raises(ValueError, match="confidence"):
                proportion_interval(
                    successes, trials, confidence=confidence, method=method
                )

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_quantile_is_scipys(self, confidence):
        """The cached quantile is scipy's; the stdlib's is one ulp off."""
        z = norm.ppf(0.5 + confidence / 2.0)
        assert intervals._z(confidence) == z
        assert NormalDist().inv_cdf(0.5 + confidence / 2.0) != z
        phat = 0.3
        assert proportion_interval(
            30, 100, confidence=confidence, method="normal"
        )[1] == phat + z * math.sqrt(phat * (1 - phat) / 100)


class TestLiftLowerBound:
    def test_strong_association_stays_above_one(self):
        # 50 of the 100 "New York" calls book an SUV, SUVs are 10% of all
        # calls: lift point estimate is 5.0; lower bound stays > 1.
        assert lift_lower_bound(50, 100, 100, 1000) > 1.0

    def test_lower_bound_below_point_estimate(self):
        point = lift_point_estimate(50, 100, 100, 1000)
        assert lift_lower_bound(50, 100, 100, 1000) < point

    def test_sparse_cell_is_shrunk_hard(self):
        # A single co-occurrence of two singleton concepts has a huge
        # point estimate but carries almost no evidence.
        point = lift_point_estimate(1, 2, 2, 1000)
        bound = lift_lower_bound(1, 2, 2, 1000)
        assert point > 100
        assert bound < point / 4

    def test_empty_marginal_yields_zero(self):
        assert lift_lower_bound(0, 0, 10, 100) == 0.0

    def test_cell_larger_than_marginal_rejected(self):
        with pytest.raises(ValueError):
            lift_lower_bound(11, 10, 20, 100)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            lift_lower_bound(0, 0, 0, 0)

    @given(
        st.integers(1, 50),
        st.integers(1, 100),
        st.integers(1, 100),
        st.integers(200, 2000),
    )
    def test_never_negative_and_below_point(self, n_cell, n_ver, n_hor, n):
        n_cell = min(n_cell, n_ver, n_hor)
        bound = lift_lower_bound(n_cell, n_ver, n_hor, n)
        point = lift_point_estimate(n_cell, n_ver, n_hor, n)
        assert 0.0 <= bound <= point


class TestLiftPointEstimate:
    def test_independent_concepts_near_one(self):
        assert lift_point_estimate(10, 100, 100, 1000) == pytest.approx(1.0)

    def test_empty_marginal(self):
        assert lift_point_estimate(0, 0, 10, 100) == 0.0
