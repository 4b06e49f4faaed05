"""Tests for repro.routing.spt details not covered elsewhere."""

import pytest

from repro.errors import NoPathError
from repro.routing import reverse_shortest_path_tree, shortest_path_tree


class TestForwardTreeApi:
    def test_path_from_root_is_trivial(self, ring8):
        tree = shortest_path_tree(ring8, 3)
        path = tree.path_from(3)
        assert list(path.nodes) == [3]
        assert path.cost == 0.0

    def test_copy_is_independent(self, ring8):
        tree = shortest_path_tree(ring8, 0)
        clone = tree.copy()
        clone.dist[4] = 999.0
        assert tree.dist[4] != 999.0

    def test_path_from_unreachable_raises(self, tiny_line):
        tiny_line.remove_link(1, 2)
        tree = shortest_path_tree(tiny_line, 0)
        with pytest.raises(NoPathError):
            tree.path_from(2)


class TestReverseTreeApi:
    def test_next_hop_of_root_is_none(self, ring8):
        tree = reverse_shortest_path_tree(ring8, 5)
        assert tree.next_hop(5) is None

    def test_distance_error_direction(self, tiny_line):
        tiny_line.remove_link(0, 1)
        tree = reverse_shortest_path_tree(tiny_line, 2)
        with pytest.raises(NoPathError) as exc:
            tree.path_from(0)
        # The reverse tree reports node -> root unreachability.
        assert exc.value.source == 0
        assert exc.value.destination == 2
