"""List-backed trees answer exactly as the dicts they used to build.

Every pure-Python kernel hands its dense ``dist`` / ``parent`` lists to
:class:`~repro.routing.spt.ShortestPathTree` as they are.  Until the trees
kept those lists, each kernel ended in ``_tree_from_lists``, which built
the ``dist`` / ``parent`` dicts in ascending-index order; that function is
kept below, verbatim apart from returning the dicts, as the reference.

For the BFS, the heap kernel (untargeted, and with ``target=`` so that
tentative nodes are in the tree), the penalized kernel and the
incremental repair, in both orientations where the kernel has two, with
node and link exclusions:

* every point query — ``reaches``, ``cost_to``, ``next_hop``,
  ``path_from``, ``NoPathError`` included — equals the answer read off the
  reference dicts;
* the materialized ``.dist`` / ``.parent`` equal the reference dicts in
  insertion order, and the point queries do not change once they exist;
* ``copy()`` is independent, and a cached tree one consumer materialized
  answers the next consumer identically.

Where numpy is importable, the list trees are also checked against the
numpy kernels' array trees on the same graphs.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import NoPathError
from repro.routing import SPTCache, kernels, penalized_shortest_path_tree
from repro.routing.dijkstra import _bfs_csr_kernel, _dijkstra_csr_kernel
from repro.routing.incremental import updated_tree
from repro.topology import npcsr
from repro.topology.scale import scale_topology

from .test_kernels import random_int_topology

_INF = float("inf")


def _tree_from_lists(csr, root, dist, parent, toward_root):
    """The ``dist`` / ``parent`` dicts of dense lists (``inf`` / -1 = none).

    Every pure-Python kernel built its dicts here, in ascending-index
    (hence ascending-id) order, so their insertion order agrees.
    """
    ids = csr.ids
    dist_map = {}
    parent_map = {}
    for i in range(csr.n):
        d = dist[i]
        if d != _INF:
            dist_map[ids[i]] = d
            p = parent[i]
            parent_map[ids[i]] = ids[p] if p >= 0 else None
    return dist_map, parent_map


def hexed(cost):
    return None if cost is None else float(cost).hex()


def no_path(exc):
    return ("no-path", exc.source, exc.destination)


def tree_answers(tree, probes):
    """Every point query of ``tree`` on ``probes``, floats as hex."""
    out = []
    for node in probes:
        try:
            path = tree.path_from(node)
            path = (path.nodes, hexed(path.cost))
        except NoPathError as exc:
            path = no_path(exc)
        out.append(
            (
                tree.reaches(node),
                hexed(tree.cost_to(node)),
                tree.next_hop(node) if tree.toward_root else None,
                path,
            )
        )
    return out


def reference_answers(root, toward_root, dist, parent, probes):
    """The answers :func:`tree_answers` must give, read off the dicts."""
    out = []
    for node in probes:
        if node not in dist:
            missing = ("no-path", node, root) if toward_root else ("no-path", root, node)
            out.append((False, None, None, missing))
            continue
        chain = [node]
        while chain[-1] != root:
            chain.append(parent[chain[-1]])
        nodes = tuple(chain) if toward_root else tuple(reversed(chain))
        out.append(
            (
                True,
                hexed(dist[node]),
                parent[node] if toward_root else None,
                (nodes, hexed(dist[node])),
            )
        )
    return out


def assert_matches_reference(tree, probes):
    """``tree`` against the reference dicts of its own dense lists."""
    dist, parent = _tree_from_lists(
        tree.csr, tree.root, tree.dense_dist, tree.dense_parent, tree.toward_root
    )
    expected = reference_answers(tree.root, tree.toward_root, dist, parent, probes)
    assert tree_answers(tree, probes) == expected
    assert tree._maps is None  # point queries never build dicts
    assert [(k, hexed(v)) for k, v in tree.dist.items()] == [
        (k, hexed(v)) for k, v in dist.items()
    ]
    assert list(tree.parent.items()) == list(parent.items())
    assert tree_answers(tree, probes) == expected


GRAPHS = {
    "unit": lambda: scale_topology(300, seed=4),
    "int": lambda: random_int_topology(9, n=70, extra=90),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return request.param, GRAPHS[request.param]()


def probes_of(topo):
    nodes = sorted(topo.nodes())
    return nodes + [-1, nodes[-1] + 1000]


def exclusions(topo, rng):
    """(node flags, link flags) pairs: none, links only, nodes and links."""
    csr = topo.csr()
    nodes = sorted(topo.nodes())
    links = sorted(topo.links())
    return [
        (None, None),
        (None, csr.link_flags(rng.sample(links, 10))),
        (csr.node_flags(rng.sample(nodes, 6)), csr.link_flags(rng.sample(links, 8))),
    ]


@pytest.mark.parametrize("toward_root", [False, True], ids=["fwd", "rev"])
def test_untargeted_kernels(graph, toward_root):
    name, topo = graph
    rng = random.Random(3 + toward_root)
    nodes = sorted(topo.nodes())
    kernel = _bfs_csr_kernel if name == "unit" else _dijkstra_csr_kernel
    for node_excl, link_excl in exclusions(topo, rng):
        for root in rng.sample(nodes, 3):
            tree = kernel(topo, root, toward_root, node_excl, link_excl)
            assert isinstance(tree.dense_dist, list)
            assert_matches_reference(tree, probes_of(topo))
            if name == "unit":  # the heap kernel builds the same tree
                heap = _dijkstra_csr_kernel(topo, root, toward_root, node_excl, link_excl)
                assert heap.dense_dist == tree.dense_dist and heap.dense_parent == tree.dense_parent


@pytest.mark.parametrize("toward_root", [False, True], ids=["fwd", "rev"])
def test_targeted_heap_keeps_tentative_nodes(graph, toward_root):
    _, topo = graph
    rng = random.Random(11 + toward_root)
    nodes = sorted(topo.nodes())
    tentative = 0
    for node_excl, link_excl in exclusions(topo, rng):
        for root, target in (rng.sample(nodes, 2) for _ in range(4)):
            tree = _dijkstra_csr_kernel(
                topo, root, toward_root, node_excl, link_excl, target
            )
            assert_matches_reference(tree, probes_of(topo))
            # The heap settles in distance order and stopped at the target,
            # so every node beyond it is tentative.
            reached = tree.cost_to(target)
            if reached is not None:
                tentative += sum(d > reached for d in tree.dist.values())
    assert tentative


def test_penalized_kernel(graph):
    _, topo = graph
    rng = random.Random(5)
    csr = topo.csr()
    units = [rng.randrange(4) for _ in range(csr.lid_size)]
    nodes = sorted(topo.nodes())
    links = sorted(topo.links())
    for excluded in (None, set(rng.sample(links, 12))):
        for root in rng.sample(nodes, 3):
            tree = penalized_shortest_path_tree(topo, root, units, 16, excluded)
            assert isinstance(tree.dense_dist, list)
            assert_matches_reference(tree, probes_of(topo))
            target = rng.choice(nodes)
            early = penalized_shortest_path_tree(
                topo, root, units, 16, excluded, target=target
            )
            assert_matches_reference(early, probes_of(topo))


@pytest.mark.parametrize("toward_root", [False, True], ids=["fwd", "rev"])
def test_incremental_repair(graph, toward_root):
    _, topo = graph
    rng = random.Random(17 + toward_root)
    csr = topo.csr()
    nodes = sorted(topo.nodes())
    links = sorted(topo.links())
    root = nodes[len(nodes) // 3]
    base = _dijkstra_csr_kernel(topo, root, toward_root, None, None)
    base_lists = (list(base.dense_dist), list(base.dense_parent))
    others = [v for v in nodes if v != root]
    for removed_links, removed_nodes in (
        (rng.sample(links, 12), ()),
        ((), rng.sample(others, 5)),
        (rng.sample(links, 8), rng.sample(others, 3)),
        ([], ()),
        (rng.sample(links, 2), [root]),
    ):
        tree = updated_tree(topo, base, removed_links, removed_nodes)
        assert_matches_reference(tree, probes_of(topo))
        fresh = _dijkstra_csr_kernel(
            topo,
            root,
            toward_root,
            csr.node_flags(removed_nodes),
            csr.link_flags(removed_links),
        )
        if root in removed_nodes:
            assert tree.dist == {}
        else:
            assert (tree.dense_dist, tree.dense_parent) == (fresh.dense_dist, fresh.dense_parent)
    # The repair read the input tree without changing or materializing it.
    assert (base.dense_dist, base.dense_parent) == base_lists and base._maps is None


def test_copy_is_independent(graph):
    _, topo = graph
    root = sorted(topo.nodes())[4]
    tree = _dijkstra_csr_kernel(topo, root, True, None, None)
    probes = probes_of(topo)
    before = tree_answers(tree, probes)
    reference = _tree_from_lists(tree.csr, root, tree.dense_dist, tree.dense_parent, True)
    clone = tree.copy()
    victim = next(v for v in clone.dist if v != root)
    clone.dist[victim] = 12345.0
    del clone.parent[victim]
    assert tree._maps is None  # editing the copy built only its dicts
    assert tree_answers(tree, probes) == before
    assert (tree.dist, tree.parent) == reference
    again = tree.copy()  # a copy of a materialized tree
    again.dist.clear()
    again.parent.clear()
    assert (tree.dist, tree.parent) == reference
    assert tree_answers(again, probes) == before


@pytest.mark.parametrize("toward_root", [False, True], ids=["fwd", "rev"])
def test_materialized_cached_tree_answers_the_next_consumer(graph, toward_root):
    _, topo = graph
    cache = SPTCache()
    nodes = sorted(topo.nodes())
    excluded = set(random.Random(2).sample(sorted(topo.links()), 6))
    get = cache.reverse_tree if toward_root else cache.forward_tree
    probes = probes_of(topo)
    for root in nodes[:3]:
        first = get(topo, root, excluded_links=excluded)
        answers = tree_answers(first, probes)
        dist, parent = dict(first.dist), dict(first.parent)
        second = get(topo, root, excluded_links=excluded)
        assert second is first
        assert tree_answers(second, probes) == answers
        assert list(second.dist.items()) == list(dist.items())
        assert list(second.parent.items()) == list(parent.items())
    assert cache.hits == 3 and cache.misses == 3


np = npcsr.numpy_or_none()


@pytest.mark.skipif(np is None, reason="numpy not installed")
@pytest.mark.parametrize("toward_root", [False, True], ids=["fwd", "rev"])
def test_list_trees_equal_array_trees(graph, toward_root):
    _, topo = graph
    csr = topo.csr()
    view = npcsr.numpy_view(csr)
    rng = random.Random(23 + toward_root)
    probes = probes_of(topo)
    for node_excl, link_excl in exclusions(topo, rng):
        for root in rng.sample(sorted(topo.nodes()), 3):
            listed = _dijkstra_csr_kernel(topo, root, toward_root, node_excl, link_excl)
            arrayed = kernels.dijkstra_numpy(
                topo, view, root, toward_root, node_excl, link_excl
            )
            assert isinstance(arrayed.dense_dist, memoryview)
            assert tree_answers(arrayed, probes) == tree_answers(listed, probes)
            assert list(arrayed.dist.items()) == list(listed.dist.items())
            assert list(arrayed.parent.items()) == list(listed.parent.items())
