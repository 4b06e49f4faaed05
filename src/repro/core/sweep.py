"""The right-hand sweeping rule (§III-B).

Phase 1 steers packets around the failure area by rotating a *sweeping
line* counterclockwise about the current node, starting from a reference
link, until it reaches a live neighbor:

* at the recovery initiator ``v_i`` whose default next hop ``v_j`` is
  unreachable, the sweeping line starts at link ``e_{i,j}``;
* at any other node ``v_m`` that received the packet from ``v_n``, the
  sweeping line starts at link ``e_{m,n}``.

On general graphs the sweep additionally skips candidates excluded by the
``cross_link`` constraints (§III-C) — see :mod:`repro.core.constraints`.

The previous hop itself is a valid candidate but sorts *last* (angle
``2*pi``), which is what makes packets back out of tree branches.

The cyclic order of a node's neighbors is a property of the embedding,
not of the failure, so it is computed once per CSR view
(:class:`SweepTable`); a sweep then starts from the reference link's id
and steps around the ring in link-id space (:meth:`SweepTable.step`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import UnknownLinkError, UnknownNodeError
from ..failures import LocalView
from ..geometry import TWO_PI, Point, ccw_angle
from ..topology import Link, Topology
from ..topology.csr import CSRView

#: Bearings at one node closer than this (to each other, or across the
#: 0 / 2*pi wrap) make it keep the per-hop key sort.  Anything wider is far
#: above the rounding of ``ccw_angle`` and its ``<= EPSILON`` rule, so the
#: ring order equals the ``(ccw_angle, id)`` order from every reference.
BEARING_GAP = 1e-6


class SweepTable:
    """Every node's neighbors in counterclockwise order of absolute bearing.

    ``ring[indptr[u]:indptr[u + 1]]`` holds the neighbor ids of dense node
    ``u`` sorted by ``atan2(dy, dx) % TWO_PI`` — the floats
    ``Point.angle`` gives the vector to the neighbor, and so the floats
    ``ccw_angle`` subtracts — and ``ring_lid`` the ids of the links to
    them.  ``slot[2 * lid + (node > nb)]`` is where ``nb`` sits in
    ``node``'s ring, so a reference link locates its start in O(1).  Nodes
    flagged in ``key_sort`` have near-equal bearings and are swept by the
    ``(ccw_angle, id)`` sort instead, of the vectors to their neighbors
    kept in ``key_vectors``; the flag is a property of the embedding.  All
    of it is per row, and a row is filled by :meth:`build` on the first
    step at its node.
    """

    __slots__ = (
        "csr", "ring", "ring_lid", "slot", "key_sort", "key_vectors", "built", "_xy"
    )

    def __init__(self, topo: Topology, csr: CSRView) -> None:
        points = [topo.position(node) for node in csr.ids]
        self._xy = ([p.x for p in points], [p.y for p in points])
        self.csr = csr
        self.ring: List[int] = [0] * len(csr.nbr)
        self.ring_lid: List[int] = [0] * len(csr.nbr)
        self.slot: List[int] = [0] * (2 * csr.lid_size)
        self.key_sort = bytearray(csr.n)
        self.key_vectors: Dict[int, List[Point]] = {}
        #: Dense nodes whose row is sorted: a row is sorted by the first
        #: step at its node, so walks pay only for the nodes they visit.
        self.built = bytearray(csr.n)

    def build(self, u: int) -> None:
        """Sort dense node ``u``'s row (and set its ``slot``s and flag)."""
        csr, (xs, ys), atan2 = self.csr, self._xy, math.atan2
        ids, nbr, lids = csr.ids, csr.nbr, csr.lid
        ring, ring_lid, slot = self.ring, self.ring_lid, self.slot
        self.built[u] = 1
        lo, hi = csr.indptr[u], csr.indptr[u + 1]
        if lo == hi:
            return
        node, x, y = ids[u], xs[u], ys[u]
        # Neighbor ids are distinct: the sort never compares past them.
        bearings = sorted(
            (atan2(ys[v] - y, xs[v] - x) % TWO_PI, ids[v], lid, v)
            for v, lid in zip(nbr[lo:hi], lids[lo:hi])
        )
        previous = bearings[-1][0] - TWO_PI
        for k, (bearing, nb, lid, _v) in enumerate(bearings, lo):
            ring[k] = nb
            ring_lid[k] = lid
            slot[2 * lid + (node > nb)] = k
            if bearing - previous <= BEARING_GAP:
                self.key_sort[u] = 1
            previous = bearing
        if self.key_sort[u]:
            self.key_vectors[u] = [Point(xs[v] - x, ys[v] - y) for *_, v in bearings]

    def step(
        self,
        view: LocalView,
        current: int,
        reference: int,
        lid: int,
        barred: Sequence[int],
        clockwise: bool,
    ) -> Optional[Tuple[int, int]]:
        """The first ``(neighbor, link id)`` the sweep from ``reference`` accepts.

        ``lid`` is the id of the link ``current``-``reference`` (the caller
        holds it: the link the packet arrived on, or the initiator's
        trigger link).  Candidates come in sweep order, ``reference`` last;
        one is accepted when ``barred[lid]`` is 0 and
        ``view.link_reachable(current, neighbor, lid)`` holds, asked in that
        order.  ``None`` when none is.
        """
        u = self.csr.pos[current]
        if not self.built[u]:
            self.build(u)
        at = self.slot[2 * lid + (current > reference)]
        if self.key_sort[u]:
            for _angle, nb, nb_lid in self._key_sorted(u, at, clockwise):
                if not barred[nb_lid] and view.link_reachable(current, nb, nb_lid):
                    return nb, nb_lid
            return None
        ring, ring_lid, indptr = self.ring, self.ring_lid, self.csr.indptr
        lo, hi = indptr[u], indptr[u + 1]
        k = at
        for _ in range(hi - lo):
            if clockwise:
                k = (k if k > lo else hi) - 1
            else:
                k += 1
                if k == hi:
                    k = lo
            nb_lid = ring_lid[k]
            if not barred[nb_lid] and view.link_reachable(current, ring[k], nb_lid):
                return ring[k], nb_lid
        return None

    def _key_sorted(
        self, u: int, at: int, clockwise: bool
    ) -> List[Tuple[float, int, int]]:
        """``(sweep angle, neighbor, lid)`` of dense node ``u``'s ring, sorted.

        The angle is ``ccw_angle`` from the reference (ring slot ``at``); a
        clockwise sweep mirrors every angle below ``2*pi``.  Node ids break
        exact ties.
        """
        lo = self.csr.indptr[u]
        vectors = self.key_vectors[u]
        reference = vectors[at - lo]
        entries = []
        for k, vector in enumerate(vectors, lo):
            angle = ccw_angle(reference, vector)
            if clockwise and angle < TWO_PI:
                angle = TWO_PI - angle
            entries.append((angle, self.ring[k], self.ring_lid[k]))
        entries.sort()
        return entries


def sweep_table(topo: Topology) -> SweepTable:
    """The rotation table of ``topo``'s current CSR view (built on first use)."""
    csr = topo.csr()
    table = csr.sweep_cache
    if table is None:
        table = csr.sweep_cache = SweepTable(topo, csr)
    return table


def _link_id(topo: Topology, csr: CSRView, current: int, reference: int) -> int:
    """Id of the link ``current``-``reference``, or the error naming what is wrong."""
    lid = csr.pair_lid.get((current, reference))
    if lid is None:
        for node in (current, reference):
            if not topo.has_node(node):
                raise UnknownNodeError(node)
        raise UnknownLinkError(Link(min(current, reference), max(current, reference)))
    return lid


class _Candidates(list):
    """A view that reachable-tests nothing: it lists every neighbor probed."""

    def link_reachable(self, node: int, neighbor: int, lid: int) -> bool:
        self.append(neighbor)
        return False


def sweep_order(
    topo: Topology, current: int, reference_neighbor: int, clockwise: bool = False
) -> List[int]:
    """Neighbors of ``current`` in sweep order from ``reference_neighbor``.

    The sweeping line starts on a link: raises :class:`UnknownLinkError`
    when ``reference_neighbor`` is not adjacent to ``current``.
    """
    table = sweep_table(topo)
    lid = _link_id(topo, table.csr, current, reference_neighbor)
    order = _Candidates()
    table.step(order, current, reference_neighbor, lid, table.csr.no_links, clockwise)
    return list(order)


def select_next_hop(
    topo: Topology,
    view: LocalView,
    current: int,
    reference_neighbor: int,
    barred: Optional[Sequence[int]] = None,
    clockwise: bool = False,
) -> Optional[int]:
    """The live, non-barred neighbor the sweeping rule selects.

    ``barred`` flags link ids (``topo.csr().pair_lid``) the cross-link
    constraints exclude — :attr:`CrossLinkState.barred
    <repro.core.constraints.CrossLinkState.barred>`; ``None`` bars none.
    ``None`` when every neighbor is unreachable or barred — only possible
    at an isolated initiator; §III-C notes an interior node can always
    fall back to its previous hop.
    """
    table = sweep_table(topo)
    csr = table.csr
    hit = table.step(
        view,
        current,
        reference_neighbor,
        _link_id(topo, csr, current, reference_neighbor),
        csr.no_links if barred is None else barred,
        clockwise,
    )
    return None if hit is None else hit[0]
