"""Test-only reference sweep — the executable spec of the rotation table.

This is the algorithm :mod:`repro.core.sweep` ran before it grew a
per-view rotation table: **every hop recomputes every
neighbor's counterclockwise angle from the reference direction and
sorts**, node id breaking exact angle ties.  It reads nothing but node
positions and the adjacency, so it cannot share a cached order with the
code under test; ``test_sweep_parity.py`` requires ``sweep_order`` (the
table's step) to return this order exactly.  :func:`reference_sweep_table`
is the table's own Point-based builder.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.sweep import BEARING_GAP
from repro.geometry import TWO_PI, ccw_angle
from repro.topology import Topology


def reference_sweep_order(
    topo: Topology,
    current: int,
    reference_neighbor: int,
    clockwise: bool = False,
) -> List[int]:
    """Neighbors of ``current`` sorted by sweep angle, then node id."""
    origin = topo.position(current)
    reference_dir = topo.position(reference_neighbor) - origin
    entries: List[Tuple[float, int]] = []
    for nb in topo.neighbors(current):
        target_dir = topo.position(nb) - origin
        angle = ccw_angle(reference_dir, target_dir)
        if clockwise and angle < TWO_PI:
            # Mirror the sweep; the reference stays at the end of the order.
            angle = TWO_PI - angle
        entries.append((angle, nb))
    entries.sort()
    return [nb for _angle, nb in entries]


def reference_sweep_table(
    topo: Topology,
) -> Tuple[List[int], List[int], List[int], bytearray]:
    """``(ring, ring_lid, slot, key_sort)`` of the rotation table, from Points.

    The builder :class:`~repro.core.sweep.SweepTable` had before it read
    flat coordinate lists: every bearing is ``Point.angle`` of the
    ``Point`` difference to the neighbor.  ``test_sweep_step.py`` requires
    the table's four arrays to equal these.
    """
    csr = topo.csr()
    ids, indptr, nbr, lids = csr.ids, csr.indptr, csr.nbr, csr.lid
    ring = [0] * len(nbr)
    ring_lid = [0] * len(nbr)
    slot = [0] * (2 * csr.lid_size)
    key_sort = bytearray(csr.n)
    for u, node in enumerate(ids):
        lo = indptr[u]
        origin = topo.position(node)
        bearings = []
        for i in range(lo, indptr[u + 1]):
            nb = ids[nbr[i]]
            bearings.append(((topo.position(nb) - origin).angle(), nb, lids[i]))
        bearings.sort()
        previous = bearings[-1][0] - TWO_PI if bearings else 0.0
        for k, (bearing, nb, lid) in enumerate(bearings, lo):
            ring[k] = nb
            ring_lid[k] = lid
            slot[2 * lid + (node > nb)] = k
            if bearing - previous <= BEARING_GAP:
                key_sort[u] = 1
            previous = bearing
    return ring, ring_lid, slot, key_sort
