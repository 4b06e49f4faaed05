"""Backend parity and policy tests for the SPT kernels.

The numpy kernels (:mod:`repro.routing.kernels`) and the pure-Python
level-order BFS promise **bit-identical** output to the heap reference on
every eligible graph.  This module enforces the promise four ways:

* *level order* — the BFS kernel against the heap kernel, both called
  directly (no numpy needed), on unit-cost graphs under every exclusion
  shape and both orientations;
* *golden* — forced-numpy vs forced-python comparisons of full trees
  (exact float equality, parent maps, and dict insertion order) on the
  catalog topologies and on pinned Table III sweeps;
* *property* — randomized connected graphs with asymmetric strictly
  positive integer costs, random exclusion sets, both orientations;
* *policy* — the node-count threshold, the no-numpy degradation path,
  the always-heap cases (targets, non-unit costs) and the unit-cost
  graphs that never reach the heap.

Both backends are pinned with the ``kernel_backend`` fixture
(``tests/conftest.py``), which moves the node-count threshold;
``test_forced_numpy_actually_runs`` proves that pinning numpy really runs
the vectorized kernel, so the parity suites compare two kernels.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.geometry import Point
from repro.routing import (
    RoutingTable,
    SPTCache,
    reverse_shortest_path_tree,
    shortest_path,
    shortest_path_tree,
)
from repro.routing import dijkstra, kernels
from repro.routing.incremental import updated_tree
from repro.topology import (
    Link,
    Topology,
    isp_catalog,
    topology_from_spec,
)
from repro.topology import npcsr
from repro.topology.examples import paper_figure_topology, paper_planar_topology
from repro.topology.scale import scale_topology

from ..conftest import ring_topology

numpy_missing = npcsr.numpy_or_none() is None

needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy not installed")


def tree_fingerprint(tree):
    """Everything the repo pins: exact distances, parents, dict order."""
    return (
        [(node, float(d).hex()) for node, d in tree.dist.items()],
        dict(tree.parent),
        list(tree.parent),
    )


def random_int_topology(seed: int, n: int = 40, extra: int = 50) -> Topology:
    """A connected random graph with asymmetric integer costs in [1, 9]."""
    rng = random.Random(seed)
    topo = Topology(f"rand{seed}")
    for i in range(n):
        topo.add_node(i, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
    for i in range(1, n):
        j = rng.randrange(i)
        topo.add_link(
            i, j, cost=float(rng.randint(1, 9)), reverse_cost=float(rng.randint(1, 9))
        )
    added = 0
    while added < extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or topo.has_link(u, v):
            continue
        topo.add_link(
            u, v, cost=float(rng.randint(1, 9)), reverse_cost=float(rng.randint(1, 9))
        )
        added += 1
    return topo


def _heap_forbidden(*args, **kwargs):
    raise AssertionError("the heap kernel ran")


@pytest.fixture
def heap_roots(monkeypatch):
    """Roots of the heap-kernel runs made while the test runs, in order."""
    roots = []
    heap = dijkstra._dijkstra_csr_kernel

    def counting(topo, root, *args, **kwargs):
        roots.append(root)
        return heap(topo, root, *args, **kwargs)

    monkeypatch.setattr(dijkstra, "_dijkstra_csr_kernel", counting)
    return roots


def both_backends(kernel_backend, fn):
    """Run ``fn()`` under forced python, then forced numpy; return both."""
    kernel_backend.use("python")
    reference = fn()
    kernel_backend.use("numpy")
    vectorized = fn()
    return reference, vectorized


class TestKernelPolicy:
    def test_auto_keeps_small_graphs_on_python(self, grid5):
        backend, view = kernels.select_backend(grid5.csr())
        assert backend == "bfs" and view is None

    def test_no_numpy_auto_degrades_to_python(self, monkeypatch, kernel_backend):
        """The whole routing stack works with numpy absent, at any size."""
        kernel_backend.use("numpy")
        monkeypatch.setattr(npcsr, "_np", None)
        topo = scale_topology(64, seed=1)
        backend, _ = kernels.select_backend(topo.csr())
        assert backend == "bfs"
        tree = shortest_path_tree(topo, next(iter(topo.nodes())))
        assert len(tree.dist) == topo.node_count

    def test_forced_python_never_runs_numpy(self, kernel_backend):
        kernel_backend.use("python")
        topo = scale_topology(64, seed=2)
        before = kernels.numpy_run_count()
        for root in list(topo.nodes())[:5]:
            shortest_path_tree(topo, root)
        assert kernels.numpy_run_count() == before

    @needs_numpy
    def test_target_queries_stay_python(self, kernel_backend, grid5):
        kernel_backend.use("numpy")
        backend, _ = kernels.select_backend(grid5.csr(), target=3)
        assert backend == "heap"

    @needs_numpy
    def test_non_integral_costs_stay_python(self, kernel_backend):
        kernel_backend.use("numpy")
        topo = Topology("frac")
        topo.add_node(0, Point(0, 0))
        topo.add_node(1, Point(1, 0))
        topo.add_link(0, 1, cost=0.5)
        backend, _ = kernels.select_backend(topo.csr())
        assert backend == "heap"

    @needs_numpy
    def test_forced_numpy_actually_runs(self, kernel_backend, grid5):
        kernel_backend.use("numpy")
        before = kernels.numpy_run_count()
        shortest_path_tree(grid5, 0)
        assert kernels.numpy_run_count() == before + 1

    def test_unit_catalog_trees_never_reach_the_heap(self, monkeypatch):
        topo = isp_catalog.build("AS3549", seed=0)
        monkeypatch.setattr(dijkstra, "_dijkstra_csr_kernel", _heap_forbidden)
        nodes = sorted(topo.nodes())
        cut = set(list(topo.links())[::9])
        for root in nodes:
            assert shortest_path_tree(topo, root).dist[root] == 0.0
            assert reverse_shortest_path_tree(topo, root, excluded_links=cut)
        # The cached path query FCP makes is answered from an untargeted tree.
        route = SPTCache().shortest_path(topo, nodes[0], nodes[-1], excluded_links=cut)
        assert route.nodes[0] == nodes[0]
        assert RoutingTable(topo).next_hop(nodes[1], nodes[-1]) is not None

    def test_target_queries_reach_the_heap(self, heap_roots, grid5):
        shortest_path_tree(grid5, 0)
        assert heap_roots == []
        shortest_path(grid5, 0, 24)
        assert heap_roots == [0]

    @pytest.mark.parametrize("cost, reverse_cost", [(2.0, 1.0), (1.0, 2.0)])
    def test_one_cost_2_link_reaches_the_heap(self, heap_roots, cost, reverse_cost):
        topo = Topology("cost2")
        for i in range(4):
            topo.add_node(i, Point(100 * i, 0))
        topo.add_link(0, 1)
        topo.add_link(1, 2)
        topo.add_link(2, 3, cost=cost, reverse_cost=reverse_cost)
        assert kernels.select_backend(topo.csr()) == ("heap", None)
        shortest_path_tree(topo, 0)
        reverse_shortest_path_tree(topo, 3)
        assert heap_roots == [0, 3]

    def test_adding_a_cost_2_link_flips_back_to_the_heap(self, heap_roots, grid5):
        shortest_path_tree(grid5, 0)
        assert heap_roots == []
        grid5.add_link(0, 24, cost=2.0)
        tree = shortest_path_tree(grid5, 0)
        assert heap_roots == [0]
        assert tree.dist[24] == 2.0 and tree.parent[24] == 0


def _frontier_order_graph() -> Topology:
    """Level 1 is found as [5, 1]; node 9 hangs below both.

    The heap kernel gives 9 the parent 1 (the smaller index).  A BFS that
    scanned its frontier in discovery order would give it 5.
    """
    topo = Topology("frontier-order")
    for node in (0, 1, 5, 9):
        topo.add_node(node, Point(node * 100.0, (node % 2) * 100.0))
    topo.add_link(0, 5)
    topo.add_link(0, 1)
    topo.add_link(5, 9)
    topo.add_link(1, 9)
    return topo


def _level_order_graphs():
    graphs = [
        pytest.param(name, seed, id=f"{name}-s{seed}")
        for name in isp_catalog.names()
        for seed in (0, 3)
    ]
    specs = (
        "paper-figure",
        "paper-figure-planar",
        "scale:300",
        "grid:6x7",
        "ring:12",
        "frontier-order",
    )
    graphs += [pytest.param(spec, 0, id=spec) for spec in specs]
    return graphs


def _build(spec: str, seed: int) -> Topology:
    special = {
        "paper-figure": paper_figure_topology,
        "paper-figure-planar": paper_planar_topology,
        "ring:12": lambda: ring_topology(12),
        "frontier-order": _frontier_order_graph,
    }
    if spec in special:
        return special[spec]()
    return topology_from_spec(spec, seed=seed)


def _exclusion_cases(topo: Topology, seed: int):
    """``(label, root, node flags, link flags)`` over every exclusion shape."""
    rng = random.Random(seed)
    csr = topo.csr()
    nodes = sorted(topo.nodes())
    links = list(topo.links())
    cases = []
    for root in [nodes[0]] + rng.sample(nodes, min(3, len(nodes))):
        others = [v for v in nodes if v != root]
        near = sorted(topo.neighbors(root))
        cases += [
            ("none", root, None, None),
            ("nodes", root, csr.node_flags(rng.sample(others, len(others) // 6)), None),
            ("links", root, None, csr.link_flags(rng.sample(links, len(links) // 5))),
            (
                "root excluded",
                root,
                csr.node_flags([root] + rng.sample(others, min(2, len(others)))),
                csr.link_flags(rng.sample(links, min(2, len(links)))),
            ),
            ("root cut off", root, csr.node_flags(near), None),
            ("root links cut", root, None, csr.link_flags(Link.of(root, v) for v in near)),
        ]
        # A disconnected remainder: the ball around the farthest node.
        hops = dijkstra._dijkstra_csr_kernel(topo, root, False, None, None).dist
        far = max(hops, key=lambda v: (hops[v], v))
        ball = {far, *topo.neighbors(far)}
        if root not in ball:
            cut = [link for link in links if (link.u in ball) != (link.v in ball)]
            cases.append(("remainder", root, None, csr.link_flags(cut)))
    return cases


class TestLevelOrderParity:
    """The BFS kernel against the heap reference, called directly (no numpy)."""

    @pytest.mark.parametrize("spec, seed", _level_order_graphs())
    def test_bit_identical_to_the_heap(self, spec, seed):
        topo = _build(spec, seed)
        assert topo.csr().unit
        reached_all = cut_off = 0
        for label, root, node_excl, link_excl in _exclusion_cases(topo, seed):
            for toward_root in (False, True):
                heap = dijkstra._dijkstra_csr_kernel(
                    topo, root, toward_root, node_excl, link_excl
                )
                bfs = dijkstra._bfs_csr_kernel(
                    topo, root, toward_root, node_excl, link_excl
                )
                assert tree_fingerprint(bfs) == tree_fingerprint(heap), (label, root)
                assert {type(d) for d in bfs.dist.values()} == {float}
                assert bfs.toward_root is toward_root
                reached_all += len(heap.dist) == topo.node_count
                cut_off += len(heap.dist) == 1
        # The grid really covers whole and partial trees.
        assert reached_all and cut_off


@needs_numpy
class TestGoldenParity:
    @pytest.mark.parametrize("name", ["AS1239", "AS3356", "AS7018"])
    def test_catalog_trees_bit_identical(self, kernel_backend, name):
        topo = isp_catalog.build(name, seed=0)
        nodes = sorted(topo.nodes())
        roots = nodes[:: max(1, len(nodes) // 6)][:6]

        def run():
            out = []
            for root in roots:
                out.append(tree_fingerprint(shortest_path_tree(topo, root)))
                out.append(tree_fingerprint(reverse_shortest_path_tree(topo, root)))
            return out

        reference, vectorized = both_backends(kernel_backend, run)
        assert reference == vectorized

    def test_catalog_trees_with_exclusions(self, kernel_backend):
        topo = isp_catalog.build("AS1239", seed=0)
        rng = random.Random(7)
        nodes = sorted(topo.nodes())
        links = list(topo.links())
        cases = []
        for _ in range(8):
            root = rng.choice(nodes)
            excl_nodes = {v for v in rng.sample(nodes, 4) if v != root}
            excl_links = set(rng.sample(links, 5))
            cases.append((root, frozenset(excl_nodes), frozenset(excl_links)))

        def run():
            return [
                tree_fingerprint(
                    shortest_path_tree(
                        topo, root, excluded_nodes=en, excluded_links=el
                    )
                )
                for root, en, el in cases
            ]

        reference, vectorized = both_backends(kernel_backend, run)
        assert reference == vectorized

    def test_pinned_table3_sweep_identical(self, kernel_backend):
        """The exact acceptance gate: a pinned Table III sweep, both backends."""
        from repro.eval.experiments import table3_recoverable

        def run():
            return json.dumps(
                table3_recoverable(("AS1239",), n_cases=16, seed=0), sort_keys=True
            )

        reference, vectorized = both_backends(kernel_backend, run)
        assert reference == vectorized

    def test_pinned_table4_sweep_identical(self, kernel_backend):
        from repro.eval.experiments import table4_wasted_summary

        def run():
            return json.dumps(
                table4_wasted_summary(("AS3356",), n_cases=12, seed=1), sort_keys=True
            )

        reference, vectorized = both_backends(kernel_backend, run)
        assert reference == vectorized


@needs_numpy
class TestPropertyParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_integer_graphs_agree(self, kernel_backend, seed):
        topo = random_int_topology(seed)
        rng = random.Random(seed * 31 + 1)
        nodes = sorted(topo.nodes())
        links = list(topo.links())

        def run():
            out = []
            for trial in range(6):
                root = rng_state[trial][0]
                en, el, toward = rng_state[trial][1:]
                fn = reverse_shortest_path_tree if toward else shortest_path_tree
                out.append(
                    tree_fingerprint(
                        fn(topo, root, excluded_nodes=en, excluded_links=el)
                    )
                )
            return out

        rng_state = []
        for _ in range(6):
            root = rng.choice(nodes)
            en = frozenset(v for v in rng.sample(nodes, 3) if v != root)
            el = frozenset(rng.sample(links, 4))
            rng_state.append((root, en, el, rng.random() < 0.5))

        reference, vectorized = both_backends(kernel_backend, run)
        assert reference == vectorized

    @pytest.mark.parametrize("seed", range(4))
    def test_unit_cost_graphs_agree(self, kernel_backend, seed):
        """Unit costs exercise the O(arcs) BFS fast path."""
        rng = random.Random(seed)
        topo = scale_topology(200 + seed * 37, seed=seed)
        nodes = sorted(topo.nodes())
        roots = rng.sample(nodes, 4)

        def run():
            return [tree_fingerprint(shortest_path_tree(topo, r)) for r in roots]

        reference, vectorized = both_backends(kernel_backend, run)
        assert reference == vectorized


@needs_numpy
class TestIncrementalParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_reattach_matches_python(self, kernel_backend, seed):
        topo = random_int_topology(seed + 40, n=50, extra=60)
        rng = random.Random(seed)
        root = rng.choice(sorted(topo.nodes()))
        base = shortest_path_tree(topo, root)
        links = [l for l in topo.links() if root not in l]
        removed_links = set(rng.sample(links, 5))
        removed_nodes = {
            v for v in rng.sample(sorted(topo.nodes()), 2) if v != root
        }

        def run():
            return updated_tree(topo, base, removed_links, removed_nodes)

        reference, vectorized = both_backends(kernel_backend, run)
        # Same values; the heap repair appends reattached nodes in settle
        # order, the numpy path is the fresh tree in id order.
        assert dict(tree_fingerprint(reference)[0]) == dict(
            tree_fingerprint(vectorized)[0]
        )
        assert reference.parent == vectorized.parent
        kernel_backend.use("python")
        fresh = shortest_path_tree(
            topo, root, excluded_nodes=removed_nodes, excluded_links=removed_links
        )
        assert tree_fingerprint(vectorized) == tree_fingerprint(fresh)

    def test_forced_python_keeps_the_heap_repair(self, kernel_backend):
        topo = scale_topology(kernels.AUTO_MIN_NODES + 100, seed=5)
        kernel_backend.use("python")
        root = max(sorted(topo.nodes()), key=topo.degree)
        base = shortest_path_tree(topo, root)
        removed = [Link.of(root, min(topo.neighbors(root)))]
        before = kernels.numpy_run_count()
        new = updated_tree(topo, base, removed_links=removed)
        assert kernels.numpy_run_count() == before
        assert new.dist.keys() == base.dist.keys()
        # The repair hands back dense lists, so its dicts are in id order too.
        assert list(new.dist) == sorted(new.dist)
