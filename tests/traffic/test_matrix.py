"""Tests for repro.traffic.matrix."""

import pytest

from repro.errors import EvaluationError
from repro.traffic import TrafficMatrix


class TestValidation:
    def test_negative_demand_rejected(self):
        with pytest.raises(EvaluationError, match="negative demand"):
            TrafficMatrix({(0, 1): -1.0})

    def test_diagonal_rejected(self):
        with pytest.raises(EvaluationError, match="diagonal"):
            TrafficMatrix({(2, 2): 1.0})

    def test_zero_entries_dropped(self):
        m = TrafficMatrix({(0, 1): 0.0, (1, 0): 3.0})
        assert len(m) == 1
        assert m.demand(0, 1) == 0.0
        assert m.demand(1, 0) == 3.0


class TestQueries:
    def test_sorted_iteration(self):
        m = TrafficMatrix({(3, 1): 1.0, (0, 2): 1.0, (0, 1): 1.0})
        assert list(m.pairs()) == [(0, 1), (0, 2), (3, 1)]

    def test_total_demand(self):
        m = TrafficMatrix({(0, 1): 1.5, (1, 0): 2.5})
        assert m.total_demand == 4.0

    def test_sources_and_destinations(self):
        m = TrafficMatrix({(0, 1): 1.0, (0, 2): 1.0, (3, 1): 1.0})
        assert m.sources() == [0, 3]


class TestSerialization:
    def test_digest_distinguishes_contents(self):
        a = TrafficMatrix({(0, 1): 1.0})
        b = TrafficMatrix({(0, 1): 1.0 + 1e-15})
        c = TrafficMatrix({(0, 1): 1.0})
        assert a.digest() == c.digest()
        assert a.digest() != b.digest()
