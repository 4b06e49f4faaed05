"""Tests for repro.routing.cache (the scenario-scoped SPT cache)."""

import random

import pytest

from repro.errors import NoPathError
from repro.core import RTR, MultiAreaRTR
from repro.core.phase2 import Phase2Engine
from repro.routing import (
    RoutingTable,
    SPTCache,
    dijkstra_run_count,
    reverse_shortest_path_tree,
    shortest_path,
    shortest_path_tree,
)
from repro.routing.cache import DEFAULT_MAX_ENTRIES
from repro.topology import geometric_isp


@pytest.fixture
def topo():
    return geometric_isp(n_nodes=30, n_links=55, rng=random.Random(3))


class TestCacheCorrectness:
    def test_trees_match_uncached(self, topo):
        cache = SPTCache()
        for root in list(topo.nodes())[:5]:
            cached = cache.forward_tree(topo, root)
            fresh = shortest_path_tree(topo, root)
            assert cached.dist == fresh.dist
            assert cached.parent == fresh.parent
            cached_rev = cache.reverse_tree(topo, root)
            fresh_rev = reverse_shortest_path_tree(topo, root)
            assert cached_rev.dist == fresh_rev.dist
            assert cached_rev.parent == fresh_rev.parent

    def test_exclusions_key_separately(self, topo):
        cache = SPTCache()
        root = next(iter(topo.nodes()))
        link = next(iter(topo.links()))
        plain = cache.forward_tree(topo, root)
        cut = cache.forward_tree(topo, root, excluded_links={link})
        assert plain is not cut
        fresh = shortest_path_tree(topo, root, excluded_links={link})
        assert cut.dist == fresh.dist

    def test_shortest_path_matches_uncached(self, topo):
        cache = SPTCache()
        nodes = sorted(topo.nodes())
        for source, destination in [(nodes[0], nodes[-1]), (nodes[3], nodes[7])]:
            cached = cache.shortest_path(topo, source, destination)
            fresh = shortest_path(topo, source, destination)
            assert tuple(cached.nodes) == tuple(fresh.nodes)
            assert cached.cost == fresh.cost

    def test_zero_hop_excluded_source_raises(self, topo):
        # The cache replicates the exclusion contract of shortest_path.
        cache = SPTCache()
        node = next(iter(topo.nodes()))
        with pytest.raises(NoPathError):
            cache.shortest_path(topo, node, node, excluded_nodes={node})
        assert (
            cache.shortest_path_or_none(topo, node, node, excluded_nodes={node})
            is None
        )


class TestCacheBehavior:
    def test_hit_returns_same_object(self, topo):
        cache = SPTCache()
        root = next(iter(topo.nodes()))
        first = cache.forward_tree(topo, root)
        second = cache.forward_tree(topo, root)
        assert first is second
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "size": 1,
        }
        assert cache.hit_rate() == 0.5

    def test_orientations_do_not_collide(self, topo):
        cache = SPTCache()
        root = next(iter(topo.nodes()))
        forward = cache.forward_tree(topo, root)
        reverse = cache.reverse_tree(topo, root)
        assert forward is not reverse
        assert len(cache) == 2

    def test_lru_eviction(self, topo):
        cache = SPTCache(max_entries=2)
        nodes = sorted(topo.nodes())
        cache.forward_tree(topo, nodes[0])
        cache.forward_tree(topo, nodes[1])
        cache.forward_tree(topo, nodes[2])  # evicts nodes[0]
        assert len(cache) == 2
        cache.forward_tree(topo, nodes[0])
        assert cache.misses == 4  # recomputed after eviction

    def test_topology_mutation_invalidates(self, topo):
        cache = SPTCache()
        nodes = sorted(topo.nodes())
        root = nodes[0]
        before = cache.forward_tree(topo, root)
        # Any mutation bumps the version, so the old entry cannot be served.
        u, v = nodes[0], nodes[1]
        if not topo.has_link(u, v):
            topo.add_link(u, v)
        else:
            topo.remove_link(u, v)
        after = cache.forward_tree(topo, root)
        assert after is not before
        assert cache.misses == 2

    def test_eviction_counter(self, topo):
        cache = SPTCache(max_entries=2)
        nodes = sorted(topo.nodes())
        cache.forward_tree(topo, nodes[0])
        cache.forward_tree(topo, nodes[1])
        cache.forward_tree(topo, nodes[2])
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["size"] == 2

    def test_signature_collision_probes_as_miss(self, topo):
        # A key whose pinned topology is a different object (id() recycled
        # after the original graph died, or a forged entry) must not be
        # served: the probe counts a miss, drops the stale entry, and
        # recomputes against the live topology.
        cache = SPTCache()
        root = next(iter(topo.nodes()))
        real = cache.forward_tree(topo, root)
        key = next(iter(cache._entries))
        cache._entries[key] = (object(), real)
        again = cache.forward_tree(topo, root)
        assert cache.stats() == {
            "hits": 0,
            "misses": 2,
            "evictions": 0,
            "size": 1,
        }
        assert again.dist == real.dist
        assert again.parent == real.parent
        # The recomputed entry is pinned to the live topology again.
        assert cache.forward_tree(topo, root) is again
        assert cache.hits == 1

    def test_clear(self, topo):
        cache = SPTCache()
        cache.forward_tree(topo, next(iter(topo.nodes())))
        cache.clear()
        assert len(cache) == 0


class TestCapacityPlumbing:
    """The scale satellite: sizing the pool and watching eviction pressure."""

    def test_default_capacity(self):
        assert SPTCache().max_entries == DEFAULT_MAX_ENTRIES == 1024
        assert SPTCache(max_entries=3).max_entries == 3

    def test_rejects_nonpositive_capacity(self):
        # A capacity below 1 would evict every tree right after storing it.
        for bad in (0, -1):
            with pytest.raises(ValueError, match=f"max_entries must be >= 1, got {bad}"):
                SPTCache(max_entries=bad)

    def test_runner_exposes_capacity(self, topo):
        from repro.eval.runner import EvaluationRunner

        assert EvaluationRunner(topo).sp_cache.max_entries == DEFAULT_MAX_ENTRIES
        pool = SPTCache(max_entries=5)
        assert EvaluationRunner(topo, sp_cache=pool).sp_cache is pool

    def test_eviction_pressure_counter(self, topo):
        from repro import obs

        prior = obs.enabled()
        obs.enable()
        obs.reset()
        try:
            cache = SPTCache(max_entries=1)
            nodes = sorted(topo.nodes())
            for root in nodes[:4]:
                cache.forward_tree(topo, root)
            counters = obs.metrics.snapshot()["counters"]
            assert counters["spt_cache.evictions"] == 3
            assert "routing.sptcache.evictions" not in counters
        finally:
            obs.reset()
            if not prior:
                obs.disable()


class TestEveryTreeThroughCache:
    """Routing tables, phase 2 and multi-area chains fetch every tree from a cache."""

    def test_dijkstra_runs_only_on_cache_misses(self, paper_topo, paper_scenario):
        def runs_match_misses(cache, use):
            runs, misses = dijkstra_run_count(), cache.misses
            use()
            assert dijkstra_run_count() - runs == cache.misses - misses > 0

        table = RoutingTable(paper_topo)
        runs_match_misses(table.cache, lambda: [table.tree_to(d) for d in (1, 17, 17)])

        phase1 = RTR(paper_topo, paper_scenario).phase1_for(6, 11)
        for incremental in (True, False):
            engine = Phase2Engine(paper_topo, 6, phase1, use_incremental=incremental)
            runs_match_misses(engine.cache, engine.tree)

        chain = MultiAreaRTR(paper_topo, paper_scenario)
        runs_match_misses(chain.routing.cache, lambda: chain.deliver(7, 17))
