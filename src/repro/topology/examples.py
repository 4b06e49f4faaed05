"""The paper's worked example topology (Figs. 1, 2, 4, 6 and Table I).

An 18-router network embedded so that the failure of router ``v10`` (plus
the links the area cuts, ``e6,11`` and ``e4,11``) reproduces the paper's
running example on a *general* (non-planar) graph:

* the default path ``v7 -> v6 -> v11 -> v15 -> v17`` breaks at ``e6,11``
  and ``v6`` becomes the recovery initiator,
* the phase-1 walk is exactly Table I's
  ``v6 v5 v4 v9 v13 v14 v12 v11 v12 v8 v7 v6`` (11 hops),
* ``failed_link`` collects ``e5,10  e4,11  e9,10  e14,10  e11,10`` in that
  order and ``cross_link`` collects ``e6,11`` then ``e14,12``,
* the recovery path to ``v17`` is the 4-hop ``v6 v5 v12 v18 v17``.

Node ids use the paper's numbering (1..18).  Coordinates were chosen so the
crossings the paper relies on hold: ``e5,12`` crosses ``e6,11``
(Constraint 1's Fig. 4 case) and ``e11,15``/``e11,16`` cross ``e14,12``
(the Fig. 5/6 case).  All of this is asserted by
``tests/core/test_paper_examples.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..geometry import Circle, Point
from .csr import cross_rows
from .graph import Topology

#: Paper node id -> plane position (x grows right, y grows up).
PAPER_POSITIONS: Dict[int, Point] = {
    1: Point(60, 500),
    2: Point(260, 510),
    3: Point(60, 270),
    4: Point(230, 420),
    5: Point(180, 330),
    6: Point(230, 240),
    7: Point(80, 120),
    8: Point(280, 110),
    9: Point(430, 430),
    10: Point(390, 315),
    11: Point(420, 230),
    12: Point(520, 140),
    13: Point(560, 510),
    14: Point(590, 420),
    15: Point(590, 330),
    16: Point(620, 60),
    17: Point(760, 340),
    18: Point(730, 130),
}

#: Undirected links of the example (unit costs — the paper routes on hops).
PAPER_LINKS: List[Tuple[int, int]] = [
    (1, 2),
    (1, 3),
    (2, 4),
    (2, 13),
    (3, 5),
    (3, 7),
    (4, 5),
    (4, 9),
    (4, 11),
    (5, 6),
    (5, 10),
    (5, 12),
    (6, 7),
    (6, 11),
    (7, 8),
    (8, 12),
    (9, 10),
    (9, 13),
    (10, 11),
    (10, 14),
    (11, 12),
    (11, 15),
    (11, 16),
    (12, 14),
    (12, 16),
    (12, 18),
    (13, 14),
    (14, 15),
    (15, 16),
    (15, 17),
    (16, 18),
    (17, 18),
]

#: The example failure area: kills ``v10`` and cuts ``e6,11`` and ``e4,11``
#: while every other router and link survives.
PAPER_FAILURE_REGION = Circle(Point(400, 300), 70.0)


def paper_figure_topology() -> Topology:
    """The general-graph example of Figs. 1/4/6 (fresh instance)."""
    topo = Topology("paper-figure")
    for node, pos in PAPER_POSITIONS.items():
        topo.add_node(node, pos)
    for u, v in PAPER_LINKS:
        topo.add_link(u, v)
    return topo


def planarize(topo: Topology) -> Topology:
    """A maximal crossing-free subgraph of ``topo`` (greedy removal).

    §III-C argues this must NOT be done online — removing cross links in
    advance can wrongly partition the network once failures occur — so the
    library only uses it to build planar *test fixtures* like the Fig. 2
    variant of the example.  Links crossing the most others are removed
    first; the result keeps ``topo``'s nodes and is crossing-free.
    """
    result = topo.copy(name=f"{topo.name}-planarized")
    while True:
        rows = cross_rows(result)
        worst = max(range(len(rows)), key=lambda lid: len(rows[lid]), default=None)
        if worst is None or not rows[worst]:
            return result
        link = result.link_at(worst)
        result.remove_link(link.u, link.v)


def paper_planar_topology() -> Topology:
    """The planar variant used to explain the basic rule (Fig. 2)."""
    planar = planarize(paper_figure_topology())
    planar.name = "paper-figure-planar"
    assert planar.is_planar_embedding()
    return planar
