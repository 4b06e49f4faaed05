"""Tests for repro.eval.statistics, cross-validated against scipy."""

import pytest

from repro.errors import EvaluationError
from repro.eval.statistics import wilson_interval

#: ``(successes, trials, low, high)`` from scipy 1.17.1's
#: ``binomtest(successes, trials).proportion_ci(confidence_level=0.95,
#: method="wilson")``, which implements the same interval; written out so
#: the check needs no scipy.
SCIPY_WILSON_95 = [
    (98, 100, 0.9299882092714561, 0.9944980324498377),
    (5, 10, 0.236593090512564, 0.7634069094874361),
    (0, 20, 0.0, 0.16112515805281935),
    (20, 20, 0.8388748419471808, 1.0),
    (493, 500, 0.9713869308622147, 0.9932022102091564),
]


class TestWilsonInterval:
    def test_against_scipy(self):
        for successes, trials, low, high in SCIPY_WILSON_95:
            lo, hi = wilson_interval(successes, trials, 0.95)
            assert lo == pytest.approx(low, abs=1e-9)
            assert hi == pytest.approx(high, abs=1e-9)

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

