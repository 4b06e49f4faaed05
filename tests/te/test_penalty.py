"""Tests for repro.te.penalty (quantized load penalty + penalized SPT).

The load-penalized metric must (a) quantize deterministically, (b)
degenerate to the base metric when nothing is loaded, and (c) produce
bit-identical trees under both kernel backends — the same promise the
base kernels make in tests/routing/test_kernels.py.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError, UnknownLinkError
from repro.geometry import Point
from repro.routing import Path, kernels, penalized_shortest_path_tree, shortest_path_tree
from repro.te.penalty import (
    DEFAULT_PENALTY_ALPHA,
    DEFAULT_UTILIZATION_CLIP,
    PENALTY_QUANT,
    LinkPenalty,
    penalty_units,
    recost_path,
    total_units,
)
from repro.topology import Link, Topology, npcsr
from repro.traffic.capacity import LinkLoadMap

numpy_missing = npcsr.numpy_or_none() is None
needs_numpy = pytest.mark.skipif(numpy_missing, reason="numpy not installed")


@pytest.fixture
def square() -> Topology:
    """A 4-cycle 0-1-2-3-0: exactly two disjoint routes between corners."""
    topo = Topology("square")
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(100, 0))
    topo.add_node(2, Point(100, 100))
    topo.add_node(3, Point(0, 100))
    topo.add_link(0, 1)
    topo.add_link(1, 2)
    topo.add_link(2, 3)
    topo.add_link(3, 0)
    return topo


class TestPenaltyUnits:
    def test_idle_and_negative_are_free(self):
        assert penalty_units(0.0) == 0
        assert penalty_units(-1.0) == 0

    def test_at_capacity_default_strength(self):
        # util 1.0 under the defaults: ⌊32 · 8 · 1²⌋ = 256 units, i.e. a
        # link at capacity looks (32 + 256)/32 = 9x longer.
        assert penalty_units(1.0) == PENALTY_QUANT * DEFAULT_PENALTY_ALPHA

    def test_monotone_in_utilization(self):
        samples = [penalty_units(u / 10) for u in range(0, 25)]
        assert samples == sorted(samples)

    def test_clip_bounds_the_units(self):
        at_clip = penalty_units(DEFAULT_UTILIZATION_CLIP)
        assert penalty_units(10.0) == at_clip
        assert penalty_units(1e9) == at_clip

    def test_integer_and_deterministic(self):
        u = penalty_units(0.7, alpha=3.0, exponent=1.5)
        assert isinstance(u, int)
        assert u == penalty_units(0.7, alpha=3.0, exponent=1.5)


class TestLinkPenalty:
    def test_from_loads_skips_uncapacitated_links(self, square):
        square.set_link_capacity(Link.of(0, 1), 10.0)
        penalty = LinkPenalty.from_loads(
            square, {Link.of(0, 1): 10.0, Link.of(1, 2): 99.0}
        )
        # (1,2) has no capacity annotation: no penalty, by construction.
        assert set(penalty.units) == {Link.of(0, 1)}
        assert penalty.max_units() == penalty_units(1.0)

    def test_null_snapshot_on_idle_network(self, square):
        square.set_link_capacity(Link.of(0, 1), 10.0)
        penalty = LinkPenalty.from_loads(square, {Link.of(0, 1): 0.0})
        assert penalty.is_null()
        assert len(penalty) == 0
        assert penalty.max_units() == 0

    def test_lid_units_array_shape_and_values(self, square):
        square.set_link_capacity(Link.of(0, 1), 10.0)
        penalty = LinkPenalty.from_loads(square, {Link.of(0, 1): 10.0})
        arr = penalty.lid_units(square)
        csr = square.csr()
        assert len(arr) == csr.lid_size
        assert arr[csr.pair_lid[(0, 1)]] == penalty_units(1.0)
        assert sum(arr) == total_units(penalty.units)

    def test_total_units_fingerprint(self):
        assert total_units({Link.of(0, 1): 3, Link.of(1, 2): 4}) == 7
        assert total_units({}) == 0


def lids(topo, *links):
    """The link ids ``refresh`` takes, of ``links``."""
    return tuple(topo.csr().pair_lid[link] for link in links)


class TestLivePenalty:
    """``refresh`` keeps a penalty equal to a rebuild; ``check_against`` proves it."""

    SHAPE = dict(alpha=3.0, exponent=1.5, clip=1.2, quant=16)

    @pytest.fixture
    def loaded(self, square):
        for link in square.links():
            square.set_link_capacity(link, 10.0)
        loads = LinkLoadMap(square)
        loads.add_link(Link.of(0, 1), 6.0)
        return loads

    @pytest.mark.parametrize("array_built", [False, True])
    def test_refresh_equals_rebuild_with_the_remembered_shape(
        self, square, loaded, array_built
    ):
        penalty = LinkPenalty.from_load_map(loaded, **self.SHAPE)
        if array_built:
            penalty.lid_units(square)
        loaded.add_link(Link.of(0, 1), 3.0)  # a penalized link moves up
        loaded.add_link(Link.of(2, 3), 9.0)  # an idle link becomes penalized
        touched = lids(square, Link.of(0, 1), Link.of(2, 3), Link.of(1, 2))  # (1,2) stays idle
        penalty.refresh(loaded, touched)
        fresh = LinkPenalty.from_load_map(loaded, **self.SHAPE)
        assert penalty.units == fresh.units
        assert set(penalty.units) == {Link.of(0, 1), Link.of(2, 3)}
        assert penalty.lid_units(square) == fresh.lid_units(square)
        penalty.check_against(loaded)

    def test_refresh_drops_a_link_that_falls_idle(self, square, loaded):
        penalty = LinkPenalty.from_load_map(loaded)
        array = penalty.lid_units(square)
        idle = LinkLoadMap(square)
        penalty.refresh(idle, lids(square, Link.of(0, 1)))
        assert penalty.is_null() and not any(array)
        penalty.check_against(idle)

    def test_links_outside_the_topology_are_refused_like_from_loads(self, square, loaded):
        """A link the square does not have is refused where it enters the loads."""
        before = loaded.loads()
        diagonal = Link.of(0, 2)
        with pytest.raises(UnknownLinkError) as err:
            loaded.add_link(diagonal, 50.0)
        assert err.value.link == diagonal
        with pytest.raises(UnknownLinkError) as err:
            loaded.add_path(Path((1, 0, 2), 2.0), 50.0)
        assert err.value.link == diagonal
        assert loaded.loads() == before, "a refused add leaves the loads alone"
        with pytest.raises(UnknownLinkError):
            LinkPenalty.from_loads(square, {diagonal: 50.0})

    def test_check_names_the_first_drifting_link(self, square, loaded):
        penalty = LinkPenalty.from_load_map(loaded)
        loaded.add_link(Link.of(2, 3), 9.0)
        loaded.add_link(Link.of(1, 2), 9.0)  # both moved, neither refreshed
        with pytest.raises(SimulationError, match=r"drifted at e1,2: 0 units") as err:
            penalty.check_against(loaded)
        assert "\n" not in str(err.value)
        penalty.refresh(loaded, lids(square, Link.of(1, 2), Link.of(2, 3)))
        penalty.check_against(loaded)

    def test_check_catches_a_stale_lid_array(self, square, loaded):
        penalty = LinkPenalty.from_load_map(loaded)
        penalty.lid_units(square)[square.csr().pair_lid[(2, 3)]] = 7
        with pytest.raises(SimulationError, match="lid array"):
            penalty.check_against(loaded)

    def test_hand_built_penalty_refreshes_with_the_defaults(self, square, loaded):
        penalty = LinkPenalty({})
        penalty.refresh(loaded, lids(square, *loaded.loads()))
        assert penalty.units == LinkPenalty.from_load_map(loaded).units


class TestPenalizedTree:
    def test_zero_units_is_scaled_base_metric(self, grid5):
        csr = grid5.csr()
        base = shortest_path_tree(grid5, 0)
        pen = penalized_shortest_path_tree(
            grid5, 0, [0] * csr.lid_size, PENALTY_QUANT
        )
        assert set(pen.dist) == set(base.dist)
        for node, d in base.dist.items():
            assert pen.dist[node] == d * PENALTY_QUANT

    def test_penalty_steers_around_loaded_link(self, square):
        # Unpenalized, 0 -> 2 ties and resolves deterministically; loading
        # one side of the square must flip the route to the other side.
        csr = square.csr()
        units = [0] * csr.lid_size
        base = penalized_shortest_path_tree(square, 0, units, PENALTY_QUANT)
        via = base.path_from(2).nodes[1]
        other = 3 if via == 1 else 1
        units[csr.pair_lid[(0, via)]] = penalty_units(1.0)
        steered = penalized_shortest_path_tree(square, 0, units, PENALTY_QUANT)
        assert steered.path_from(2).nodes == (0, other, 2)

    def test_excluded_links_respected(self, square):
        csr = square.csr()
        tree = penalized_shortest_path_tree(
            square,
            0,
            [0] * csr.lid_size,
            PENALTY_QUANT,
            excluded_links={Link.of(0, 1)},
        )
        assert tree.path_from(1).nodes == (0, 3, 2, 1)

    @needs_numpy
    def test_numpy_python_bit_parity(self, grid5, kernel_backend):
        csr = grid5.csr()
        units = [0] * csr.lid_size
        # A deterministic non-trivial load pattern over every third lid.
        for lid in range(0, csr.lid_size, 3):
            units[lid] = penalty_units(0.5 + (lid % 7) / 4.0)
        roots = sorted(grid5.nodes())[::5]
        trees = {}
        for backend in ("python", "numpy"):
            kernel_backend.use(backend)
            before = kernels.numpy_run_count()
            trees[backend] = [
                penalized_shortest_path_tree(grid5, r, units, PENALTY_QUANT)
                for r in roots
            ]
            ran = kernels.numpy_run_count() - before
            assert ran == (len(roots) if backend == "numpy" else 0)
        for py, np_ in zip(trees["python"], trees["numpy"]):
            assert py.dist == np_.dist  # exact float equality, bit parity
            assert py.parent == np_.parent

    @needs_numpy
    def test_inexact_penalized_sums_stay_python(self, grid5, kernel_backend):
        # Penalized path sums that could reach 2**53 have no exact
        # vectorized equivalent, whatever the base selector says.
        kernel_backend.use("numpy")
        units = [0] * grid5.csr().lid_size
        units[0] = 2**50
        before = kernels.numpy_run_count()
        penalized_shortest_path_tree(grid5, 0, units, PENALTY_QUANT)
        assert kernels.numpy_run_count() == before


class TestRecostPath:
    def test_base_metric_cost(self, square):
        path = Path((0, 1, 2), 12345.0)  # penalized-units cost, discarded
        recosted = recost_path(square, path)
        assert recosted.nodes == (0, 1, 2)
        assert recosted.cost == pytest.approx(
            square.cost(0, 1) + square.cost(1, 2)
        )
