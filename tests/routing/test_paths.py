"""Tests for repro.routing.paths."""

from repro.routing import Path


class TestPath:
    def test_endpoints(self):
        p = Path((1, 2, 3), 2.0)
        assert p.source == 1
        assert p.destination == 3

    def test_zero_hop_path(self):
        p = Path((5,), 0.0)
        assert list(p.hops()) == []
        assert p.source == p.destination == 5

    def test_hops_pairs(self):
        assert list(Path((1, 2, 3), 2.0).hops()) == [(1, 2), (2, 3)]

    def test_str(self):
        assert str(Path((1, 2), 1.0)) == "v1 -> v2 (cost 1)"
