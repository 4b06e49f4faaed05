"""The rotation table sweeps exactly like the per-hop sort it replaced.

``reference_sweep.py`` recomputes and sorts every neighbor's angle at
every call.  ``neighbor_sweep_order`` reads the order from the
per-view :class:`~repro.core.sweep.SweepTable`; both must return the same
``(angle, node_id, node)`` triples for every (node, reference neighbor,
direction) — on the catalog, on generated graphs, and on stars built to
put bearings on top of each other, one ulp apart and across the 0 / 2*pi
wrap, where a table node has to fall back to the sort.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import neighbor_sweep_order
from repro.core.sweep import sweep_table
from repro.geometry import Point
from repro.topology import Topology, isp_catalog, topology_from_spec

from .reference_sweep import reference_sweep_order


def assert_every_arc_matches(topo: Topology) -> None:
    for node in topo.nodes():
        for reference in topo.neighbors(node):
            for clockwise in (False, True):
                assert neighbor_sweep_order(
                    topo, node, reference, clockwise
                ) == reference_sweep_order(topo, node, reference, clockwise), (
                    node,
                    reference,
                    clockwise,
                )


@pytest.mark.parametrize("spec", isp_catalog.names() + ["grid:6x7", "scale:2000"])
def test_every_arc_matches_reference(spec):
    assert_every_arc_matches(topology_from_spec(spec, seed=0))


def test_table_rebuilt_after_mutation(grid5):
    before = sweep_table(grid5)
    grid5.add_link(0, 6)  # a diagonal at node 0, between east and north
    assert sweep_table(grid5) is not before
    assert [nb for _a, nb, _n in neighbor_sweep_order(grid5, 0, 1)] == [6, 5, 1]
    assert_every_arc_matches(grid5)
    grid5.remove_link(0, 6)
    assert [nb for _a, nb, _n in neighbor_sweep_order(grid5, 0, 1)] == [5, 1]


# Offsets from the star's center.  Each draw starts from a direction and
# may add a twin on the same ray (an exact bearing tie), a twin one ulp
# away, or one of the bearings where ``% TWO_PI`` and the EPSILON rule bite.
_SPECIAL = [
    (1.0, -0.0),  # bearing -0.0 (the center sits at y = +0.0)
    (1.0, 0.0),
    (1.0, -1e-300),  # rounds to exactly 2*pi
    (1.0, -1e-12),  # just under 2*pi
    (1.0, 1e-12),
    (-1.0, 0.0),
    (-1.0, -0.0),  # atan2 gives -pi
]


@st.composite
def stars(draw):
    offsets = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["direction", "special", "twin", "ulp"]))
        if kind == "special" or (kind != "direction" and not offsets):
            offsets.append(draw(st.sampled_from(_SPECIAL)))
        elif kind == "direction":
            theta = draw(st.floats(-math.pi, math.pi))
            rho = draw(st.floats(1.0, 1000.0))
            offsets.append((rho * math.cos(theta), rho * math.sin(theta)))
        elif kind == "twin":
            dx, dy = draw(st.sampled_from(offsets))
            offsets.append((2.0 * dx, 2.0 * dy))
        else:
            dx, dy = draw(st.sampled_from(offsets))
            offsets.append((dx, math.nextafter(dy, math.inf)))
    topo = Topology("star")
    topo.add_node(0, Point(0.0, 0.0))
    for i, (dx, dy) in enumerate(offsets, start=1):
        topo.add_node(i, Point(dx, dy))
        topo.add_link(0, i)
    return topo


@settings(max_examples=150, deadline=None)
@given(stars())
def test_star_arcs_match_reference(topo):
    assert_every_arc_matches(topo)
