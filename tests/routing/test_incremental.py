"""Tests for repro.routing.incremental (Narvaez-style SPT updates).

The key contract: after any batch of link/node removals, the incrementally
updated tree has exactly the same distances as a fresh Dijkstra on the
surviving graph.  This is the guarantee RTR's phase 2 relies on (§III-D).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import (
    reverse_shortest_path_tree,
    shortest_path_tree,
    updated_tree,
)
from repro.topology import Link, geometric_isp


def assert_trees_equivalent(topo, new_tree, root, removed_links, removed_nodes, toward_root):
    if toward_root:
        fresh = reverse_shortest_path_tree(
            topo, root, excluded_nodes=set(removed_nodes),
            excluded_links=set(removed_links),
        )
    else:
        fresh = shortest_path_tree(
            topo, root, excluded_nodes=set(removed_nodes),
            excluded_links=set(removed_links),
        )
    fresh_dist = {n: d for n, d in fresh.dist.items() if n not in removed_nodes}
    new_dist = {n: d for n, d in new_tree.dist.items()}
    assert new_dist.keys() == fresh_dist.keys()
    for node, d in fresh_dist.items():
        assert new_dist[node] == pytest.approx(d)


class TestBasicRemovals:
    def test_non_tree_link_removal_is_noop(self, ring8):
        tree = shortest_path_tree(ring8, 0)
        # The link 3-4 is not on any shortest path from 0 in an 8-ring
        # (both 3 and 4 are reached the short way around).
        new = updated_tree(ring8, tree, removed_links=[Link.of(3, 4)])
        assert new.dist == tree.dist

    def test_tree_link_removal_reroutes(self, ring8):
        tree = shortest_path_tree(ring8, 0)
        new = updated_tree(ring8, tree, removed_links=[Link.of(0, 1)])
        assert new.dist[1] == 7  # all the way around

    def test_node_removal(self, ring8):
        tree = shortest_path_tree(ring8, 0)
        new = updated_tree(ring8, tree, removed_nodes=[1])
        assert 1 not in new.dist
        assert new.dist[2] == 6

    def test_root_removal_empties_tree(self, ring8):
        tree = shortest_path_tree(ring8, 0)
        new = updated_tree(ring8, tree, removed_nodes=[0])
        assert new.dist == {}

    def test_partition_drops_unreachable(self, tiny_line):
        tree = shortest_path_tree(tiny_line, 0)
        new = updated_tree(tiny_line, tree, removed_links=[Link.of(1, 2)])
        assert 2 not in new.dist
        assert new.dist[1] == 1

    def test_original_tree_untouched(self, ring8):
        tree = shortest_path_tree(ring8, 0)
        before = dict(tree.dist)
        updated_tree(ring8, tree, removed_links=[Link.of(0, 1)])
        assert tree.dist == before

    def test_incremental_distance_helper(self, ring8):
        tree = shortest_path_tree(ring8, 0)
        assert updated_tree(ring8, tree, removed_links=[Link.of(0, 1)]).cost_to(1) == 7
        cut = updated_tree(ring8, tree, removed_links=[Link.of(0, 1), Link.of(1, 2)])
        assert cut.cost_to(1) is None


class TestAgainstFreshDijkstra:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_link_batches(self, seed):
        rng = random.Random(seed)
        topo = geometric_isp(30, 70, rng)
        root = rng.randrange(30)
        tree = shortest_path_tree(topo, root)
        removed = rng.sample(list(topo.links()), 12)
        new = updated_tree(topo, tree, removed_links=removed)
        assert_trees_equivalent(topo, new, root, removed, set(), toward_root=False)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_node_and_link_batches(self, seed):
        rng = random.Random(100 + seed)
        topo = geometric_isp(30, 70, rng)
        root = 0
        tree = shortest_path_tree(topo, root)
        removed_nodes = set(rng.sample([n for n in topo.nodes() if n != 0], 4))
        removed_links = set(rng.sample(list(topo.links()), 6))
        new = updated_tree(
            topo, tree, removed_links=removed_links, removed_nodes=removed_nodes
        )
        assert_trees_equivalent(
            topo, new, root, removed_links, removed_nodes, toward_root=False
        )

    def test_reverse_tree_update(self, grid5):
        tree = reverse_shortest_path_tree(grid5, 24)
        removed = [Link.of(23, 24), Link.of(19, 24)]
        new = updated_tree(grid5, tree, removed_links=removed)
        assert_trees_equivalent(grid5, new, 24, removed, set(), toward_root=True)

    def test_failure_scenario_batch(self, paper_topo, paper_scenario):
        # Exactly the phase-2 use: the initiator updates its SPT with E1.
        tree = shortest_path_tree(paper_topo, 6)
        removed = set(paper_scenario.failed_links)
        new = updated_tree(paper_topo, tree, removed_links=removed)
        assert_trees_equivalent(paper_topo, new, 6, removed, set(), toward_root=False)
        assert len(new.path_from(17).nodes) == 5


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_removed=st.integers(min_value=0, max_value=20),
)
def test_property_incremental_equals_fresh(seed, n_removed):
    """For arbitrary graphs and removal batches, incremental == fresh."""
    rng = random.Random(seed)
    n = rng.randrange(8, 28)
    m = rng.randrange(n - 1, min(n * (n - 1) // 2, 3 * n))
    topo = geometric_isp(n, m, rng)
    root = rng.randrange(n)
    tree = shortest_path_tree(topo, root)
    links = list(topo.links())
    removed = rng.sample(links, min(n_removed, len(links)))
    new = updated_tree(topo, tree, removed_links=removed)
    assert_trees_equivalent(topo, new, root, removed, set(), toward_root=False)
