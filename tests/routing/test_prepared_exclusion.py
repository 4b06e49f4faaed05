"""The prepared exclusion: one translation of ``E`` per CSR view.

``FailureScenario.exclusion()`` caches the :class:`Exclusion` of its
``E2`` per CSR view (``failed_link_flags()`` is a field of it), and
``SPTCache`` takes either that object or plain sets.  These tests pin
the invalidation after a topology mutation and that the two spellings of
one exclusion are the same cache key.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import Oracle
from repro.failures import FailureScenario, LocalView
from repro.routing import SPTCache, dijkstra_run_count, shortest_path_tree
from repro.topology import Link, geometric_isp
from repro.topology.csr import Exclusion


def fresh_topology():
    return geometric_isp(n_nodes=30, n_links=55, rng=random.Random(3))


def unlinked_pair(topo, avoid=()):
    nodes = sorted(topo.nodes())
    return next(
        (u, v)
        for u in nodes
        for v in nodes
        if u < v and not topo.has_link(u, v) and u not in avoid and v not in avoid
    )


class TestScenarioExclusionInvalidation:
    def test_cached_per_view_and_rebuilt_after_mutation(self):
        topo = fresh_topology()
        nodes = sorted(topo.nodes())
        scenario = FailureScenario.from_nodes(topo, nodes[:2])
        first = scenario.exclusion()
        assert scenario.exclusion() is first
        assert scenario.failed_link_flags() is first.link_flags
        assert first.csr is topo.csr()

        # A new link gets a new interned id: the old flag array is too
        # short for it, and the old masks belong to the old view.
        u, v = unlinked_pair(topo, avoid=scenario.failed_nodes)
        old_version = topo.csr().version
        topo.add_link(u, v)
        csr = topo.csr()
        assert csr.version > old_version
        rebuilt = scenario.exclusion()
        assert rebuilt is not first
        assert rebuilt.csr is csr
        assert scenario.exclusion() is rebuilt
        flags = scenario.failed_link_flags()
        assert flags is rebuilt.link_flags
        assert len(flags) == csr.lid_size == len(first.link_flags) + 1
        assert flags == csr.link_flags(scenario.failed_links)
        assert rebuilt.node_flags == csr.node_flags(scenario.failed_nodes)
        # The probe that indexes the flags sees the new adjacency as live.
        assert LocalView(scenario).is_neighbor_reachable(u, v)

    def test_stale_prepared_exclusion_is_translated_again(self):
        topo = fresh_topology()
        nodes = sorted(topo.nodes())
        scenario = FailureScenario.from_nodes(topo, nodes[:2])
        stale = scenario.exclusion()
        topo.add_link(*unlinked_pair(topo, avoid=scenario.failed_nodes))
        tree = SPTCache().forward_tree(topo, nodes[5], exclusion=stale)
        fresh = shortest_path_tree(
            topo, nodes[5], set(scenario.failed_nodes), set(scenario.failed_links)
        )
        assert tree.dist == fresh.dist
        assert tree.parent == fresh.parent

    def test_oracle_tree_follows_the_mutation(self):
        topo = fresh_topology()
        nodes = sorted(topo.nodes())
        scenario = FailureScenario.from_nodes(topo, nodes[:2])
        oracle = Oracle(topo, scenario)
        root = nodes[5]
        before = oracle.tree_from(root)
        assert oracle.tree_from(root) is before
        assert oracle.cache.hits + oracle.cache.misses == 1
        far = max(before.dist, key=before.dist.get)
        assert not topo.has_link(root, far)
        topo.add_link(root, far)
        after = oracle.tree_from(root)
        assert after is not before
        assert oracle.optimal_cost(root, far) == after.dist[far] <= before.dist[far]


# One graph for the property: a retired link id and ids that never existed.
TOPO = fresh_topology()
RETIRED = sorted(TOPO.links())[7]
TOPO.remove_link(RETIRED.u, RETIRED.v)
NODES = sorted(TOPO.nodes())
LINKS = sorted(TOPO.links())
UNKNOWN_NODES = (10_000, 10_001)
UNKNOWN_LINKS = (RETIRED, Link.of(10_000, 10_001))

node_sets = st.sets(st.sampled_from(NODES[1:] + list(UNKNOWN_NODES)), max_size=6)
link_sets = st.sets(st.sampled_from(LINKS + list(UNKNOWN_LINKS)), max_size=8)


class TestSetAndPreparedFormsShareOneKey:
    @given(nodes=node_sets, links=link_sets, prepared_first=st.booleans(), reverse=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_either_form_hits_the_others_tree(self, nodes, links, prepared_first, reverse):
        cache = SPTCache()
        query = cache.reverse_tree if reverse else cache.forward_tree
        root = NODES[0]

        def by_sets():
            return query(TOPO, root, excluded_nodes=nodes, excluded_links=links)

        def by_prepared():
            return query(TOPO, root, exclusion=Exclusion(TOPO.csr(), nodes, links))

        first, second = (by_prepared, by_sets) if prepared_first else (by_sets, by_prepared)
        tree = first()
        runs = dijkstra_run_count()
        assert second() is tree
        assert dijkstra_run_count() == runs
        assert cache.stats() == {"hits": 1, "misses": 1, "evictions": 0, "size": 1}

    @given(nodes=node_sets, links=link_sets)
    @settings(max_examples=60, deadline=None)
    def test_unknown_nodes_and_retired_links_are_ignored_identically(self, nodes, links):
        known_nodes = nodes - set(UNKNOWN_NODES)
        known_links = links - set(UNKNOWN_LINKS)
        cache = SPTCache()
        tree = cache.forward_tree(TOPO, NODES[0], known_nodes, known_links)
        prepared = Exclusion(TOPO.csr(), nodes, links)
        assert prepared.node_mask == Exclusion(TOPO.csr(), known_nodes).node_mask
        assert prepared.link_mask == Exclusion(TOPO.csr(), (), known_links).link_mask
        assert cache.forward_tree(TOPO, NODES[0], exclusion=prepared) is tree
        assert cache.forward_tree(TOPO, NODES[0], nodes, links) is tree
        assert (cache.hits, cache.misses) == (2, 1)
        fresh = shortest_path_tree(TOPO, NODES[0], known_nodes, known_links)
        assert tree.dist == fresh.dist
        assert tree.parent == fresh.parent
