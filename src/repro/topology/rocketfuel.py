"""Parsing Rocketfuel-style topology files.

The paper derives its topologies from the Rocketfuel project and then
*randomly places the nodes in a 2000 x 2000 area* (§IV-A) — Rocketfuel
maps carry no usable coordinates.  This module does the same for users
who have the data files (they are not redistributable, which is why the
catalog ships synthetic equivalents instead — DESIGN.md §2); the
``file:`` spec loads them through :func:`repro.topology.io.load_graph_file`,
which sniffs the format and calls the parsers here:

* **edge lists** (the widely shared ``weights.intra``-style format):
  one ``<node> <node> [weight]`` triple per line, ``#`` comments;
* **cch files** (Rocketfuel's native ``<asn>.cch``): per-line router
  records ``uid ... -> <nbr1> <nbr2> ... ``; we extract the router id and
  its ``<...>`` neighbor ids and ignore external (negative/euid) links.

Node names are mapped to dense integer ids in first-seen order.  Parallel
edges and self-loops are dropped.  The embedding is uniform random in the
paper's simulation area, seeded by the caller for reproducibility.
"""

from __future__ import annotations

import random
import re
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import TopologyError
from ..geometry import Point
from .generators import DEFAULT_AREA
from .graph import Topology

_CCH_NEIGHBOR = re.compile(r"<(\d+)>")


def parse_edge_list(lines: Iterable[str]) -> List[Tuple[str, str, float]]:
    """Parse ``node node [weight]`` lines into string-keyed edges."""
    edges: List[Tuple[str, str, float]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise TopologyError(f"line {lineno}: expected 'node node [weight]'")
        weight = 1.0
        if len(parts) >= 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise TopologyError(
                    f"line {lineno}: bad weight {parts[2]!r}"
                ) from None
        if weight <= 0:
            raise TopologyError(f"line {lineno}: non-positive weight {weight}")
        edges.append((parts[0], parts[1], weight))
    return edges


def parse_cch(lines: Iterable[str]) -> List[Tuple[str, str, float]]:
    """Parse Rocketfuel ``.cch`` router records into unit-weight edges.

    Each backbone line starts with a numeric uid and lists internal
    neighbors as ``<uid>`` tokens after ``->``.  External links
    (``{-euid}``) and non-router lines are ignored.
    """
    edges: List[Tuple[str, str, float]] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head = line.split()[0]
        if not head.lstrip("-").isdigit():
            continue
        uid = head
        if uid.startswith("-"):
            continue  # external node record
        _, _, tail = line.partition("->")
        if not tail:
            continue
        for match in _CCH_NEIGHBOR.finditer(tail):
            edges.append((uid, match.group(1), 1.0))
    return edges


def topology_from_edges(
    edges: List[Tuple[str, str, float]],
    rng: Optional[random.Random] = None,
    name: str = "rocketfuel",
    largest_component_only: bool = True,
) -> Topology:
    """Build an embedded topology from parsed edges.

    Duplicate edges keep the first weight; self-loops are dropped; node
    names map to dense ids in first-seen order; nodes are placed uniformly
    at random in the simulation area (§IV-A).  With
    ``largest_component_only`` the result is restricted to the largest
    connected component, as routing evaluation requires connectivity.
    """
    if not edges:
        raise TopologyError("no edges parsed")
    rng = rng or random.Random(0)
    ids: Dict[str, int] = {}

    def node_id(name_: str) -> int:
        if name_ not in ids:
            ids[name_] = len(ids)
        return ids[name_]

    unique: Dict[Tuple[int, int], float] = {}
    for a, b, w in edges:
        if a == b:
            continue
        u, v = node_id(a), node_id(b)
        key = (min(u, v), max(u, v))
        unique.setdefault(key, w)

    topo = Topology(name)
    for _name, nid in ids.items():
        topo.add_node(
            nid, Point(rng.uniform(0, DEFAULT_AREA), rng.uniform(0, DEFAULT_AREA))
        )
    for (u, v), w in unique.items():
        topo.add_link(u, v, cost=w)

    if largest_component_only and not topo.is_connected():
        best: set = set()
        seen: set = set()
        for node in topo.nodes():
            if node in seen:
                continue
            component = topo.component_of(node)
            seen |= component
            if len(component) > len(best):
                best = component
        restricted = Topology(name)
        for node in sorted(best):
            restricted.add_node(node, topo.position(node))
        for link in topo.links():
            if link.u in best and link.v in best:
                restricted.add_link(link.u, link.v, cost=topo.cost(link.u, link.v))
        return restricted
    return topo

