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
(:class:`SweepTable`); a sweep from any reference link then starts after
the reference and steps around the ring.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..errors import UnknownLinkError, UnknownNodeError
from ..failures import LocalView
from ..geometry import TWO_PI, ccw_angle
from ..topology import Link, Topology
from ..topology.csr import CSRView

#: Predicate deciding whether the link from the current node to a candidate
#: neighbor is excluded by the cross-link constraints.
ExclusionFn = Callable[[Link], bool]

#: Bearings at one node closer than this (to each other, or across the
#: 0 / 2*pi wrap) make it keep the per-hop key sort.  Anything wider is far
#: above the rounding of ``ccw_angle`` and its ``<= EPSILON`` rule, so the
#: ring order equals the ``(ccw_angle, id)`` order from every reference.
BEARING_GAP = 1e-6


class SweepTable:
    """Every node's neighbors in counterclockwise order of absolute bearing.

    ``ring[indptr[u]:indptr[u + 1]]`` holds the neighbor ids of dense node
    ``u`` sorted by ``(position(nb) - position(node)).angle()`` — the
    floats ``ccw_angle`` subtracts.  ``slot[2 * lid + (node > nb)]`` is
    where ``nb`` sits in ``node``'s ring, so a reference link locates its
    start in O(1).  Nodes flagged in ``key_sort`` have near-equal bearings
    and are swept by the ``(ccw_angle, id)`` sort instead; the flag is a
    property of the embedding, set once here.
    """

    __slots__ = ("csr", "ring", "slot", "key_sort")

    def __init__(self, topo: Topology, csr: CSRView) -> None:
        ids, indptr, nbr, lid = csr.ids, csr.indptr, csr.nbr, csr.lid
        position = topo.position
        self.csr = csr
        self.ring: List[int] = [0] * len(nbr)
        self.slot: List[int] = [0] * (2 * csr.lid_size)
        self.key_sort = bytearray(csr.n)
        for u, node in enumerate(ids):
            lo = indptr[u]
            origin = position(node)
            bearings = []
            for i in range(lo, indptr[u + 1]):
                nb = ids[nbr[i]]
                bearings.append(((position(nb) - origin).angle(), nb, lid[i]))
            bearings.sort()
            previous = bearings[-1][0] - TWO_PI if bearings else 0.0
            for k, (bearing, nb, link_id) in enumerate(bearings):
                self.ring[lo + k] = nb
                self.slot[2 * link_id + (node > nb)] = lo + k
                if bearing - previous <= BEARING_GAP:
                    self.key_sort[u] = 1
                previous = bearing

    def order(
        self, topo: Topology, current: int, reference: int, clockwise: bool
    ) -> List[int]:
        """Neighbors of ``current`` in sweep order, ``reference`` last."""
        csr = self.csr
        link_id = csr.pair_lid.get((current, reference))
        if link_id is None:
            for node in (current, reference):
                if not topo.has_node(node):
                    raise UnknownNodeError(node)
            raise UnknownLinkError(Link(min(current, reference), max(current, reference)))
        u = csr.pos[current]
        if self.key_sort[u]:
            entries = _sweep_angles(topo, current, reference, clockwise)
            entries.sort(key=lambda e: (e[0], e[1]))  # by angle, id breaks exact ties
            return [nb for _angle, nb, _node in entries]
        at = self.slot[2 * link_id + (current > reference)]
        rest = self.ring[at + 1 : csr.indptr[u + 1]] + self.ring[csr.indptr[u] : at]
        if clockwise:
            rest.reverse()
        rest.append(reference)
        return rest


def sweep_table(topo: Topology) -> SweepTable:
    """The rotation table of ``topo``'s current CSR view (built on first use)."""
    csr = topo.csr()
    table = csr.sweep_cache
    if table is None:
        table = csr.sweep_cache = SweepTable(topo, csr)
    return table


def sweep_order(
    topo: Topology, current: int, reference_neighbor: int, clockwise: bool = False
) -> List[int]:
    """Neighbors of ``current`` in sweep order from ``reference_neighbor``.

    The sweeping line starts on a link: raises :class:`UnknownLinkError`
    when ``reference_neighbor`` is not adjacent to ``current``.
    """
    return sweep_table(topo).order(topo, current, reference_neighbor, clockwise)


def _sweep_angles(
    topo: Topology, current: int, reference_neighbor: int, clockwise: bool
) -> List[Tuple[float, int, int]]:
    """``(angle, node_id, node)`` of every neighbor, in adjacency order."""
    origin = topo.position(current)
    reference_dir = topo.position(reference_neighbor) - origin
    entries: List[Tuple[float, int, int]] = []
    for nb in topo.neighbors(current):
        angle = ccw_angle(reference_dir, topo.position(nb) - origin)
        if clockwise and angle < TWO_PI:
            # Mirror the sweep; the reference stays at the end of the order.
            angle = TWO_PI - angle
        entries.append((angle, nb, nb))
    return entries


def neighbor_sweep_order(
    topo: Topology,
    current: int,
    reference_neighbor: int,
    clockwise: bool = False,
) -> List[Tuple[float, int, int]]:
    """Neighbors of ``current`` in sweep order from the reference direction.

    Returns ``(angle, node_id, node)`` triples sorted by counterclockwise
    angle from the direction of ``reference_neighbor`` (clockwise when
    ``clockwise`` — the mirror ablation of DESIGN.md §4).  The reference
    neighbor itself appears with angle ``2*pi``.  Node id breaks exact angle
    ties deterministically.  Raises :class:`UnknownLinkError` when the
    reference is not a neighbor: the sweeping line starts on a link.
    """
    order = sweep_order(topo, current, reference_neighbor, clockwise)
    entry = {e[2]: e for e in _sweep_angles(topo, current, reference_neighbor, clockwise)}
    return [entry[nb] for nb in order]


def select_next_hop(
    topo: Topology,
    view: LocalView,
    current: int,
    reference_neighbor: int,
    is_excluded: Optional[ExclusionFn] = None,
    clockwise: bool = False,
) -> Optional[int]:
    """The live, non-excluded neighbor the sweeping rule selects.

    ``None`` when every neighbor is unreachable or excluded — only possible
    at an isolated initiator; §III-C notes an interior node can always fall
    back to its previous hop.
    """
    for nb in sweep_order(topo, current, reference_neighbor, clockwise):
        if not view.is_neighbor_reachable(current, nb):
            continue
        if is_excluded is not None and is_excluded(Link.of(current, nb)):
            continue
        return nb
    return None


def first_hop(
    topo: Topology,
    view: LocalView,
    initiator: int,
    unreachable_next_hop: int,
    is_excluded: Optional[ExclusionFn] = None,
    clockwise: bool = False,
) -> Optional[int]:
    """Case 1 of §III-B: the initiator's first hop.

    The sweeping line starts at the link to the unreachable default next
    hop; the rule is otherwise identical to the interior-node case.
    """
    return select_next_hop(
        topo, view, initiator, unreachable_next_hop, is_excluded, clockwise
    )
