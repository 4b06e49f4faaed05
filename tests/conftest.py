"""Shared fixtures and test-only builders for the test suite."""

from __future__ import annotations

import math
import random
import sys

import pytest

from repro import obs
from repro.errors import TopologyError
from repro.failures import FailureScenario
from repro.geometry import Circle, Point, Polygon
from repro.routing import kernels
from repro.topology import DEFAULT_AREA, Topology, grid_topology
from repro.topology.examples import (
    PAPER_FAILURE_REGION,
    paper_figure_topology,
    paper_planar_topology,
)


def ring_topology(n: int) -> Topology:
    """``n`` nodes on a circle, each linked to its two neighbors."""
    if n < 3:
        raise TopologyError("a ring needs at least 3 nodes")
    topo = Topology("ring")
    for i in range(n):
        angle = 2 * math.pi * i / n
        topo.add_node(i, Point(1000 + 500 * math.cos(angle), 1000 + 500 * math.sin(angle)))
    for i in range(n):
        topo.add_link(i, (i + 1) % n)
    return topo


def ring_sweep(budget: int = 40, strict: bool = True):
    """Node 4's phase-1 walk on the 8-ring with link 4-5 failed.

    Returns the spec (first hop 3, no constraints: the ring is planar) and
    a fresh collecting packet at 4.  Run it on an engine whose view has
    the link failed: the full walk is 14 hops, 4-3-...-5-...-3-4.
    """
    from repro.core.phase1 import SweepWalkSpec
    from repro.simulator import Mode, Packet, RecoveryHeader

    spec = SweepWalkSpec(
        initiator=4,
        start_hop=3,
        constraints=None,
        clockwise=False,
        budget=budget,
        strict=strict,
    )
    header = RecoveryHeader(mode=Mode.COLLECTING, rec_init=4)
    return spec, Packet(source=4, destination=4, header=header)


def sweep_field_trace(spec, accounting, outcome):
    """The header snapshots of ``spec``'s last walk, which ran on ``accounting``."""
    from repro.core.phase1 import rebuild_field_trace

    snapshots = len(outcome.visited) - outcome.truncated
    return rebuild_field_trace(
        accounting.header_log, spec.origin + (snapshots,), outcome.visited
    )


def star_topology(n_leaves: int) -> Topology:
    """A hub (node 0) with ``n_leaves`` spokes — the extreme tree-branch case."""
    if n_leaves < 1:
        raise TopologyError("a star needs at least 1 leaf")
    topo = Topology("star")
    topo.add_node(0, Point(400, 400))
    for i in range(1, n_leaves + 1):
        angle = 2 * math.pi * (i - 1) / n_leaves
        topo.add_node(i, Point(400 + 400 * math.cos(angle), 400 + 400 * math.sin(angle)))
        topo.add_link(0, i)
    return topo


def random_polygon(
    rng: random.Random, mean_radius: float = 200.0, n_vertices: int = 8
) -> Polygon:
    """A random star-shaped polygon — an arbitrary-shape failure area.

    Vertices sit at jittered radii around a random center, ordered by
    angle, so the polygon is simple (non self-intersecting).
    """
    center = Point(rng.uniform(0.0, DEFAULT_AREA), rng.uniform(0.0, DEFAULT_AREA))
    vertices = []
    for i in range(n_vertices):
        angle = 2.0 * math.pi * i / n_vertices
        r = mean_radius * rng.uniform(0.5, 1.5)
        vertices.append(Point(center.x + r * math.cos(angle), center.y + r * math.sin(angle)))
    return Polygon(vertices)


@pytest.fixture
def obs_on():
    """Observability on, registries empty, for one test; then restored."""
    prior = obs.enabled()
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    if not prior:
        obs.disable()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests must not depend on global random state."""
    return random.Random(0xC0FFEE)


class KernelBackend:
    """Moves the numpy node-count threshold so one backend serves every query.

    ``use("numpy")`` lowers :data:`repro.routing.kernels.AUTO_MIN_NODES` to
    0, so every exact graph runs the vectorized kernels; ``use("python")``
    raises it past any graph, so everything runs the pure-Python kernels:
    the level-order BFS on unit-cost graphs, the heap reference otherwise.
    Targeted queries and non-integral costs stay on the heap kernel
    either way, as they do in production.
    """

    def __init__(self, monkeypatch) -> None:
        self._monkeypatch = monkeypatch

    def use(self, backend: str) -> None:
        threshold = {"numpy": 0, "python": sys.maxsize}[backend]
        self._monkeypatch.setattr(kernels, "AUTO_MIN_NODES", threshold)


@pytest.fixture
def kernel_backend(monkeypatch) -> KernelBackend:
    """Pin the SPT kernel backend for one test (restored afterwards)."""
    return KernelBackend(monkeypatch)


@pytest.fixture
def paper_topo() -> Topology:
    """The 18-node general-graph example of Figs. 1/4/6."""
    return paper_figure_topology()


@pytest.fixture
def paper_planar() -> Topology:
    """The planarized variant (Fig. 2)."""
    return paper_planar_topology()


@pytest.fixture
def paper_scenario(paper_topo: Topology) -> FailureScenario:
    """The example failure: v10 dies, e6,11 and e4,11 are cut."""
    return FailureScenario.from_region(paper_topo, PAPER_FAILURE_REGION)


@pytest.fixture
def grid5() -> Topology:
    """A 5x5 grid (planar, plenty of equal-cost paths)."""
    return grid_topology(5, 5)


@pytest.fixture
def ring8() -> Topology:
    """An 8-node ring (exactly two paths between any pair)."""
    return ring_topology(8)


@pytest.fixture
def tiny_line() -> Topology:
    """Three nodes in a line: 0 - 1 - 2."""
    topo = Topology("line3")
    topo.add_node(0, Point(0, 0))
    topo.add_node(1, Point(100, 0))
    topo.add_node(2, Point(200, 0))
    topo.add_link(0, 1)
    topo.add_link(1, 2)
    return topo


def make_circle(x: float, y: float, r: float) -> Circle:
    """Convenience for tests."""
    return Circle(Point(x, y), r)
