"""Tests for repro.eval.cdf."""

from repro.eval import cdf_points, summarize


class TestCdfPoints:
    def test_simple(self):
        pts = cdf_points([1, 2, 3, 4])
        assert pts == [(1, 0.25), (2, 0.5), (3, 0.75), (4, 1.0)]

    def test_duplicates_collapse(self):
        pts = cdf_points([1, 1, 2])
        assert pts == [(1, 2 / 3), (2, 1.0)]

    def test_empty(self):
        assert cdf_points([]) == []

    def test_last_point_is_one(self):
        pts = cdf_points([5.5, 2.2, 9.9])
        assert pts[-1][1] == 1.0

    def test_monotone(self):
        pts = cdf_points([3, 1, 4, 1, 5, 9, 2, 6])
        xs = [x for x, _ in pts]
        ps = [p for _, p in pts]
        assert xs == sorted(xs)
        assert ps == sorted(ps)


class TestSummarize:
    def test_stats(self):
        s = summarize([1, 2, 3, 4])
        assert s["count"] == 4
        assert s["mean"] == 2.5
        assert s["min"] == 1 and s["max"] == 4
        assert s["median"] == 2.5

    def test_odd_median(self):
        assert summarize([1, 5, 9])["median"] == 5

    def test_empty(self):
        assert summarize([])["count"] == 0
