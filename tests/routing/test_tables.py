"""Tests for repro.routing.tables."""

import pytest

from repro.errors import UnknownNodeError
from repro.routing import RoutingTable


class TestRoutingTable:
    def test_next_hop_on_line(self, tiny_line):
        table = RoutingTable(tiny_line)
        assert table.next_hop(0, 2) == 1
        assert table.next_hop(1, 2) == 2

    def test_next_hop_at_destination(self, tiny_line):
        assert RoutingTable(tiny_line).next_hop(2, 2) is None

    def test_next_hop_unreachable(self, tiny_line):
        tiny_line.remove_link(1, 2)
        table = RoutingTable(tiny_line)
        assert table.next_hop(0, 2) is None

    def test_path(self, grid5):
        table = RoutingTable(grid5)
        path = table.path(0, 24)
        assert path is not None
        assert path.source == 0 and path.destination == 24
        assert path.hop_count == 8

    def test_distance(self, grid5):
        assert RoutingTable(grid5).distance(0, 12) == 4

    def test_distance_unreachable(self, tiny_line):
        tiny_line.remove_link(0, 1)
        assert RoutingTable(tiny_line).distance(0, 2) is None

    def test_unknown_destination(self, tiny_line):
        with pytest.raises(UnknownNodeError):
            RoutingTable(tiny_line).next_hop(0, 99)

    def test_tree_caching(self, grid5):
        table = RoutingTable(grid5)
        t1 = table.tree_to(24)
        t2 = table.tree_to(24)
        assert t1 is t2

    def test_precompute_all(self, ring8):
        table = RoutingTable(ring8)
        table.precompute_all()
        assert len(table._trees) == 8

    def test_paths_consistent_with_hop_by_hop(self, grid5):
        # Walking next hops reproduces path() — the forwarding invariant.
        table = RoutingTable(grid5)
        for src in [0, 7, 13]:
            path = table.path(src, 24)
            node, walked = src, [src]
            while node != 24:
                node = table.next_hop(node, 24)
                walked.append(node)
            assert walked == list(path.nodes)


def by_link(topo, lid_loads):
    """``edge_loads_to``'s lid-keyed result, keyed by ``Link`` (same order)."""
    links = topo.csr().links
    return {links[lid]: load for lid, load in lid_loads.items()}


class TestEdgeLoadsTo:
    """The batched per-root load sweep must equal per-path accumulation."""

    def test_matches_per_path_accumulation(self, grid5):
        from repro.topology import Link

        table = RoutingTable(grid5)
        demands = {n: float(1 + (n * 7) % 5) for n in range(1, 25)}
        batched = by_link(grid5, table.edge_loads_to(0, demands))
        expected = {}
        for source, demand in demands.items():
            path = table.path(source, 0)
            for a, b in path.hops():
                link = Link.of(a, b)
                expected[link] = expected.get(link, 0.0) + demand
        assert set(batched) == set(expected)
        for link in expected:
            assert batched[link] == pytest.approx(expected[link], rel=1e-12)

    def test_relayed_carry_forwarded(self, tiny_line):
        # Demand entering at the far end must traverse *both* links.
        from repro.topology import Link

        table = RoutingTable(tiny_line)
        loads = by_link(tiny_line, table.edge_loads_to(0, {2: 5.0}))
        assert loads[Link.of(1, 2)] == 5.0
        assert loads[Link.of(0, 1)] == 5.0

    def test_unreachable_sources_ignored(self, tiny_line):
        tiny_line.remove_link(1, 2)
        table = RoutingTable(tiny_line)
        loads = by_link(tiny_line, table.edge_loads_to(0, {1: 2.0, 2: 9.0}))
        from repro.topology import Link

        assert loads == {Link.of(0, 1): 2.0}

    def test_empty_demands(self, grid5):
        assert RoutingTable(grid5).edge_loads_to(0, {}) == {}
