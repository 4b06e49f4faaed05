"""Test-only reference sweep — the executable spec of the rotation table.

This is the algorithm :mod:`repro.core.sweep` ran before it grew a
per-view rotation table, kept verbatim: **every hop recomputes every
neighbor's counterclockwise angle from the reference direction and
sorts**, node id breaking exact angle ties.  It reads nothing but node
positions and the adjacency, so it cannot share a cached order with the
code under test; ``test_sweep_parity.py`` requires ``neighbor_sweep_order``
to return these triples exactly.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.geometry import TWO_PI, ccw_angle
from repro.topology import Topology


def reference_sweep_order(
    topo: Topology,
    current: int,
    reference_neighbor: int,
    clockwise: bool = False,
) -> List[Tuple[float, int, int]]:
    """``(angle, node_id, node)`` triples sorted by angle, then node id."""
    origin = topo.position(current)
    reference_dir = topo.position(reference_neighbor) - origin
    entries: List[Tuple[float, int, int]] = []
    for nb in topo.neighbors(current):
        target_dir = topo.position(nb) - origin
        angle = ccw_angle(reference_dir, target_dir)
        if clockwise and angle < TWO_PI:
            # Mirror the sweep; the reference stays at the end of the order.
            angle = TWO_PI - angle
        entries.append((angle, nb, nb))
    entries.sort(key=lambda e: (e[0], e[1]))
    return entries
