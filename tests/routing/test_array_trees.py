"""Numpy parity for array-backed trees, the BFS frontier, and phase 2.

The numpy kernels hand out :class:`~repro.routing.spt.ShortestPathTree`
objects that read their ``dist`` / ``parent`` arrays through memoryviews
and build the reference dicts only when ``.dist`` / ``.parent`` is read.  This module
pins that behaviour against the pure-Python reference kernel:

* the sort-free ``_bfs_unit`` frontier gives the reference distances and
  parents (each set in the wave that reaches its node) on ``scale:2000``
  with random exclusions and on small unit graphs whose frontier nodes
  share neighbours;
* every point query of an array tree answers as the reference tree does,
  the materialized dicts equal the reference dicts in insertion order, and
  copies are independent;
* ``updated_tree`` on a numpy view is the fresh tree of ``G - removed``,
  and builds no :class:`PreFailureTree` it is handed — so RTR phase 2 on
  a numpy view builds no exclusion-free forward tree.

Skipped as a whole when numpy is not importable.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import NoPathError
from repro.geometry import Point
from repro.core import Phase2Engine
from repro.core.phase1 import Phase1Result
from repro.routing import PreFailureTree, SPTCache, dijkstra_run_count, kernels
from repro.routing.dijkstra import _dijkstra_csr_kernel
from repro.routing.incremental import updated_tree
from repro.topology import Link, Topology, npcsr
from repro.topology.scale import scale_topology

from .test_kernels import random_int_topology

np = npcsr.numpy_or_none()

pytestmark = pytest.mark.skipif(np is None, reason="numpy not installed")

_INF = float("inf")


@pytest.fixture(scope="module")
def scale2000():
    return scale_topology(2000, seed=0)


def random_flags(topo, rng, n_nodes, n_links):
    """Random node/link exclusion flag arrays (either may be ``None``)."""
    csr = topo.csr()
    nodes = sorted(topo.nodes())
    links = sorted(topo.links())
    node_excl = csr.node_flags(rng.sample(nodes, n_nodes)) if n_nodes else None
    link_excl = csr.link_flags(rng.sample(links, n_links)) if n_links else None
    return node_excl, link_excl


def reference_dist_array(topo, tree):
    csr = topo.csr()
    out = np.full(csr.n, _INF)
    for node, d in tree.dist.items():
        out[csr.pos[node]] = d
    return out


def reference_parent_array(topo, tree):
    csr = topo.csr()
    out = np.full(csr.n, -1, dtype=np.int32)
    for node, p in tree.parent.items():
        out[csr.pos[node]] = -1 if p is None else csr.pos[p]
    return out


def assert_bfs_matches(topo, got, ref):
    """``_bfs_unit``'s (dist, parent) pair equals the reference tree's arrays."""
    dist, parent = got
    assert parent.dtype == np.int32
    assert np.array_equal(dist, reference_dist_array(topo, ref))
    assert np.array_equal(parent, reference_parent_array(topo, ref))


def hexed(items):
    return [(node, float(d).hex()) for node, d in items]


def array_tree(topo, root, toward_root, node_excl=None, link_excl=None):
    view = npcsr.numpy_view(topo.csr())
    return kernels.dijkstra_numpy(topo, view, root, toward_root, node_excl, link_excl)


def answer(fn, *args):
    try:
        return fn(*args)
    except NoPathError as exc:
        return ("no-path", exc.args)


def point_answers(tree, probes):
    """Every point query of ``tree`` on ``probes``, floats as hex."""
    out = []
    for node in probes:
        cost = tree.cost_to(node)
        path = answer(tree.path_from, node)
        if not isinstance(path, tuple):
            path = (path.nodes, float(path.cost).hex())
        out.append(
            (
                tree.reaches(node),
                None if cost is None else float(cost).hex(),
                tree.next_hop(node) if tree.toward_root else None,
                path,
            )
        )
    return out


class TestBfsFrontier:
    @pytest.mark.parametrize("seed", range(3))
    def test_scale_2000_with_exclusions(self, scale2000, seed):
        topo = scale2000
        csr = topo.csr()
        view = npcsr.numpy_view(csr)
        assert view.unit
        rng = random.Random(seed)
        nodes = sorted(topo.nodes())
        for n_nodes, n_links in ((0, 0), (0, 40), (60, 0), (60, 40), (300, 300)):
            root = rng.choice(nodes)
            node_excl, link_excl = random_flags(topo, rng, n_nodes, n_links)
            got = kernels._bfs_unit(np, view, csr.pos[root], node_excl, link_excl)
            for toward_root in (False, True):
                ref = _dijkstra_csr_kernel(topo, root, toward_root, node_excl, link_excl)
                assert_bfs_matches(topo, got, ref)

    def test_excluded_root_still_expands(self, scale2000):
        csr = scale2000.csr()
        root = sorted(scale2000.nodes())[7]
        node_excl = csr.node_flags([root])
        got = kernels._bfs_unit(
            np, npcsr.numpy_view(csr), csr.pos[root], node_excl, None
        )
        ref = _dijkstra_csr_kernel(scale2000, root, False, node_excl, None)
        assert_bfs_matches(scale2000, got, ref)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=18),
        edges=st.lists(
            st.tuples(st.integers(0, 17), st.integers(0, 17)), min_size=1, max_size=60
        ),
        root_pick=st.integers(min_value=0, max_value=17),
        toward_root=st.booleans(),
    )
    def test_unit_graphs_with_shared_neighbours(self, n, edges, root_pick, toward_root):
        # Dense small graphs: most waves hold nodes that share neighbours,
        # so the same target is scattered more than once per wave.
        topo = Topology("unit")
        for i in range(n):
            topo.add_node(i, Point(float(i), float(i * i % 5)))
        for u, v in edges:
            u, v = u % n, v % n
            if u != v and not topo.has_link(u, v):
                topo.add_link(u, v)
        root = root_pick % n
        assert npcsr.numpy_view(topo.csr()).unit
        ref = _dijkstra_csr_kernel(topo, root, toward_root, None, None)
        tree = array_tree(topo, root, toward_root)
        assert hexed(tree.dist.items()) == hexed(ref.dist.items())
        assert list(tree.parent.items()) == list(ref.parent.items())


def tree_cases():
    """(topology factory, toward_root, excluded node count, link count)."""
    return [
        pytest.param(factory, toward, en, el, id=f"{name}-{'rev' if toward else 'fwd'}-{en}n{el}l")
        for name, factory in (
            ("unit", lambda: scale_topology(300, seed=4)),
            ("int", lambda: random_int_topology(9, n=70, extra=90)),
        )
        for toward in (False, True)
        for en, el in ((0, 0), (5, 8))
    ]


class TestArrayTrees:
    @pytest.mark.parametrize("factory,toward_root,n_nodes,n_links", tree_cases())
    def test_every_answer_matches_reference(self, factory, toward_root, n_nodes, n_links):
        topo = factory()
        rng = random.Random(n_nodes * 7 + n_links + toward_root)
        nodes = sorted(topo.nodes())
        probes = nodes + [-1, nodes[-1] + 1000]
        for _ in range(3):
            root = rng.choice(nodes)
            node_excl, link_excl = random_flags(topo, rng, n_nodes, n_links)
            ref = _dijkstra_csr_kernel(topo, root, toward_root, node_excl, link_excl)
            tree = array_tree(topo, root, toward_root, node_excl, link_excl)
            assert point_answers(tree, probes) == point_answers(ref, probes)
            assert tree._maps is None  # point queries never build dicts
            assert hexed(tree.dist.items()) == hexed(ref.dist.items())
            assert list(tree.parent.items()) == list(ref.parent.items())
            assert tree._maps is not None  # the dicts sit beside the arrays
            assert point_answers(tree, probes) == point_answers(ref, probes)

    def test_copy_is_independent(self):
        topo = random_int_topology(3, n=40, extra=50)
        root = 5
        ref = _dijkstra_csr_kernel(topo, root, False, None, None)
        tree = array_tree(topo, root, False)
        clone = tree.copy()
        victim = next(n for n in ref.dist if n != root)
        clone.dist[victim] = 12345.0
        del clone.parent[victim]
        assert tree._maps is None  # editing the copy built only its dicts
        assert tree.cost_to(victim) == ref.dist[victim]
        assert tree.parent == ref.parent
        again = tree.copy()  # a copy of a materialized tree
        again.dist.clear()
        assert tree.dist == ref.dist

    def test_arrays_are_read_only(self):
        tree = array_tree(random_int_topology(4), 0, True)
        dist, parent = tree.dense_dist.obj, tree.dense_parent.obj
        assert not dist.flags.writeable and not parent.flags.writeable

    def test_materialized_counter(self, obs_on):
        topo = random_int_topology(5)
        tree = array_tree(topo, 0, False)
        tree.cost_to(3), tree.reaches(4), tree.path_from(3)
        assert "spt.materialized" not in obs.metrics.snapshot()["counters"]
        tree.dist, tree.parent, tree.dist
        assert obs.metrics.snapshot()["counters"]["spt.materialized"] == 1


def removal_cases(topo, rng):
    """(label, removed links, removed nodes) covering the edge cases."""
    nodes = sorted(topo.nodes())
    links = sorted(topo.links())
    root = nodes[len(nodes) // 3]
    ghost_link = Link.of(nodes[-1] + 1, nodes[-1] + 2)
    return root, [
        ("links", rng.sample(links, 12), ()),
        ("nodes", (), [v for v in rng.sample(nodes, 6) if v != root]),
        ("both", rng.sample(links, 8), [v for v in rng.sample(nodes, 3) if v != root]),
        ("unknown", [ghost_link], [nodes[-1] + 5, -3]),
        ("root", rng.sample(links, 2), [root]),
    ]


class TestUpdatedTreeOnNumpyViews:
    @pytest.mark.parametrize("toward_root", [False, True])
    @pytest.mark.parametrize(
        "factory",
        [lambda: scale_topology(400, seed=8), lambda: random_int_topology(21, n=60, extra=70)],
        ids=["unit", "int"],
    )
    def test_fresh_tree_equals_reference(self, kernel_backend, factory, toward_root):
        topo = factory()
        csr = topo.csr()
        root, cases = removal_cases(topo, random.Random(17))
        kernel_backend.use("python")
        base = _dijkstra_csr_kernel(topo, root, toward_root, None, None)
        for label, links, removed in cases:
            kernel_backend.use("python")
            heap = updated_tree(topo, base, links, removed)
            kernel_backend.use("numpy")
            before = kernels.numpy_run_count()
            got = updated_tree(topo, base, links, removed)
            if label == "root":
                assert got.dist == {} and got.parent == {}
                assert heap.dist == {}
                continue
            assert kernels.numpy_run_count() == before + 1, label
            fresh = _dijkstra_csr_kernel(
                topo, root, toward_root, csr.node_flags(removed), csr.link_flags(links)
            )
            # The fresh tree, in its id order...
            assert hexed(got.dist.items()) == hexed(fresh.dist.items()), label
            assert list(got.parent.items()) == list(fresh.parent.items()), label
            # ...and the heap repair's values, in its settle order.
            assert dict(hexed(heap.dist.items())) == dict(hexed(got.dist.items())), label
            assert heap.parent == got.parent, label

    def test_auto_picks_the_fresh_tree_at_scale(self):
        topo = scale_topology(kernels.AUTO_MIN_NODES + 100, seed=1)
        root = sorted(topo.nodes())[3]
        base = array_tree(topo, root, False)
        removed = sorted(topo.links())[::50]
        before = kernels.numpy_run_count()
        got = updated_tree(topo, base, removed_links=removed)
        assert kernels.numpy_run_count() == before + 1
        assert isinstance(got.dense_dist, memoryview)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_a_pre_failure_tree_is_built_only_where_read(self, kernel_backend, backend):
        topo = scale_topology(400, seed=8)
        root = sorted(topo.nodes())[5]
        removed = sorted(topo.links())[::40]
        kernel_backend.use("python")
        base = _dijkstra_csr_kernel(topo, root, False, None, None)
        kernel_backend.use(backend)
        builds = []

        def build():
            builds.append(root)
            return base

        got = updated_tree(topo, PreFailureTree(root, False, build), removed_links=removed)
        assert builds == ([] if backend == "numpy" else [root])
        want = updated_tree(topo, base, removed_links=removed)
        assert hexed(got.dist.items()) == hexed(want.dist.items())
        assert list(got.parent.items()) == list(want.parent.items())

    def test_phase2_builds_no_exclusion_free_tree(self):
        topo = scale_topology(kernels.AUTO_MIN_NODES + 100, seed=1)
        initiator = sorted(topo.nodes())[3]
        failed = sorted(topo.links())[::50]
        phase1 = Phase1Result(
            initiator=initiator,
            walk=[initiator],
            collected_failed_links=failed,
            cross_links=[],
            local_failed_links=[],
            hops=0,
            duration=0.0,
        )
        cache = SPTCache()
        engine = Phase2Engine(topo, initiator, phase1, cache=cache)
        runs, numpy_runs = dijkstra_run_count(), kernels.numpy_run_count()
        tree = engine.tree()
        assert (cache.hits, cache.misses) == (0, 0)
        assert dijkstra_run_count() == runs
        assert kernels.numpy_run_count() == numpy_runs + 1
        fresh = cache.forward_tree(topo, initiator, excluded_links=set(failed))
        assert hexed(tree.dist.items()) == hexed(fresh.dist.items())
        assert list(tree.parent.items()) == list(fresh.parent.items())
