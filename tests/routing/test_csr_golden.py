"""Golden equivalence: CSR Dijkstra vs the dict-based reference.

The production kernel (:mod:`repro.routing.dijkstra`) runs on the
flat-array CSR view.  This module keeps the original dict-based
implementation verbatim as an executable specification and asserts the
CSR kernel returns *identical* trees — same distances (exact float
equality, not approx), same parents, same tie-breaks — on every catalog
topology, in both orientations, with and without exclusions.
"""

import heapq
import random

import pytest

from repro.routing import (
    reverse_shortest_path_tree,
    shortest_path,
    shortest_path_or_none,
    shortest_path_tree,
)
from repro.routing.spt import ShortestPathTree
from repro.topology import Link, isp_catalog


def reference_dijkstra(
    topo,
    root,
    toward_root,
    excluded_nodes=frozenset(),
    excluded_links=frozenset(),
    target=None,
):
    """The pre-CSR dict-based Dijkstra, verbatim (the golden reference)."""
    dist = {root: 0.0}
    parent = {root: None}
    settled = set()
    heap = [(0.0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == target:
            break
        for v in topo.neighbors(u):
            if v in settled or v in excluded_nodes:
                continue
            if excluded_links and Link.of(u, v) in excluded_links:
                continue
            step = topo.cost(v, u) if toward_root else topo.cost(u, v)
            candidate = d + step
            known = dist.get(v)
            if known is None or candidate < known - 1e-12:
                dist[v] = candidate
                parent[v] = u
                heapq.heappush(heap, (candidate, v))
            elif known is not None and abs(candidate - known) <= 1e-12:
                if u < parent[v]:
                    parent[v] = u
    return as_tree(topo, root, dist, parent, toward_root)


def as_tree(topo, root, dist, parent, toward_root):
    """The reference dicts as a tree over ``topo``'s dense node indices."""
    csr = topo.csr()
    dense_dist = [float("inf")] * csr.n
    dense_parent = [-1] * csr.n
    for node, d in dist.items():
        dense_dist[csr.pos[node]] = d
        if parent[node] is not None:
            dense_parent[csr.pos[node]] = csr.pos[parent[node]]
    return ShortestPathTree(csr, root, dense_dist, dense_parent, toward_root)


def assert_identical(csr_tree, ref_tree):
    assert csr_tree.root == ref_tree.root
    assert csr_tree.toward_root == ref_tree.toward_root
    # Exact equality on purpose: the CSR kernel relaxes the same arcs in
    # the same order with the same float arithmetic, so even
    # tolerance-window outcomes must match bit for bit.
    assert csr_tree.dist == ref_tree.dist
    assert csr_tree.parent == ref_tree.parent


@pytest.fixture(scope="module", params=isp_catalog.names())
def catalog_topo(request):
    return isp_catalog.build(request.param)


class TestGoldenEquivalence:
    def test_forward_tree_matches_reference(self, catalog_topo):
        rng = random.Random(7)
        for root in rng.sample(sorted(catalog_topo.nodes()), 3):
            csr_tree = shortest_path_tree(catalog_topo, root)
            assert_identical(csr_tree, reference_dijkstra(catalog_topo, root, False))

    def test_reverse_tree_matches_reference(self, catalog_topo):
        rng = random.Random(11)
        for root in rng.sample(sorted(catalog_topo.nodes()), 3):
            csr_tree = reverse_shortest_path_tree(catalog_topo, root)
            assert_identical(csr_tree, reference_dijkstra(catalog_topo, root, True))

    def test_excluded_nodes_and_links_match_reference(self, catalog_topo):
        rng = random.Random(13)
        nodes = sorted(catalog_topo.nodes())
        links = sorted(catalog_topo.links())
        for trial in range(3):
            excluded_nodes = frozenset(rng.sample(nodes, 4))
            excluded_links = frozenset(rng.sample(links, 8))
            root = rng.choice([n for n in nodes if n not in excluded_nodes])
            for toward_root in (False, True):
                build = reverse_shortest_path_tree if toward_root else shortest_path_tree
                csr_tree = build(
                    catalog_topo,
                    root,
                    excluded_nodes=set(excluded_nodes),
                    excluded_links=set(excluded_links),
                )
                ref_tree = reference_dijkstra(
                    catalog_topo, root, toward_root, excluded_nodes, excluded_links
                )
                assert_identical(csr_tree, ref_tree)

    def test_early_terminated_path_matches_reference(self, catalog_topo):
        # shortest_path stops at the target; the returned path must equal
        # the one read off the reference's early-terminated tree.
        rng = random.Random(17)
        nodes = sorted(catalog_topo.nodes())
        for trial in range(5):
            source, destination = rng.sample(nodes, 2)
            path = shortest_path(catalog_topo, source, destination)
            ref_tree = reference_dijkstra(
                catalog_topo, source, False, target=destination
            )
            ref_path = ref_tree.path_from(destination)
            assert tuple(path.nodes) == tuple(ref_path.nodes)
            assert path.cost == ref_path.cost

    def test_disconnected_matches_reference(self, catalog_topo):
        # Cutting all links around the source must report NoPath just like
        # the reference (which leaves the destination unreached).
        nodes = sorted(catalog_topo.nodes())
        source = nodes[0]
        destination = nodes[-1]
        excluded_links = frozenset(catalog_topo.incident_links(source))
        assert (
            shortest_path_or_none(
                catalog_topo, source, destination, excluded_links=set(excluded_links)
            )
            is None
        )
        ref_tree = reference_dijkstra(
            catalog_topo, source, False, excluded_links=excluded_links
        )
        assert destination not in ref_tree.dist
