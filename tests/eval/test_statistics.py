"""Tests for repro.eval.statistics, cross-validated against scipy."""

import math

import pytest
import scipy.stats

from repro.errors import EvaluationError
from repro.eval.statistics import wilson_interval


class TestWilsonInterval:
    def test_against_scipy(self):
        # scipy's binomtest proportion_ci implements the same interval.
        for successes, trials in [(98, 100), (5, 10), (0, 20), (20, 20), (493, 500)]:
            lo, hi = wilson_interval(successes, trials, 0.95)
            ref = scipy.stats.binomtest(successes, trials).proportion_ci(
                confidence_level=0.95, method="wilson"
            )
            assert lo == pytest.approx(ref.low, abs=1e-9)
            assert hi == pytest.approx(ref.high, abs=1e-9)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(986, 1000)
        assert lo <= 0.986 <= hi

    def test_bounded(self):
        assert wilson_interval(0, 5) [0] == 0.0
        assert wilson_interval(5, 5)[1] == 1.0

    def test_narrows_with_n(self):
        lo1, hi1 = wilson_interval(50, 100)
        lo2, hi2 = wilson_interval(5000, 10000)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_invalid_inputs(self):
        with pytest.raises(EvaluationError):
            wilson_interval(1, 0)
        with pytest.raises(EvaluationError):
            wilson_interval(5, 3)
        with pytest.raises(EvaluationError):
            wilson_interval(1, 10, confidence=0.8)

