"""Topology generators.

The paper's evaluation takes eight Rocketfuel-derived ISP topologies and
randomly places their nodes in a 2000 x 2000 area (§IV-A).  Since the raw
Rocketfuel data is not available offline, :func:`geometric_isp` synthesises
connected geometric graphs with *exactly* a requested node and link count:

1. nodes are placed uniformly at random in the simulation area,
2. a Euclidean minimum spanning tree guarantees connectivity (and gives the
   tree branches the paper observes in sparse topologies like AS7018),
3. the remaining links are sampled with a Waxman-style distance bias so
   that links are geometrically local, as in real ISP maps.

What matters for RTR's behaviour is size, density, and geometric locality;
the generator reproduces all three (see DESIGN.md §2).

:func:`grid_topology` is the deterministic lattice behind the ``grid:``
spec.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

from ..errors import TopologyError
from ..geometry import Point
from .graph import Topology

#: Side length of the paper's simulation area.
DEFAULT_AREA = 2000.0


def random_positions(
    n: int, rng: random.Random, area: float = DEFAULT_AREA
) -> Dict[int, Point]:
    """Uniform random positions for nodes ``0..n-1`` in an ``area`` square."""
    return {i: Point(rng.uniform(0.0, area), rng.uniform(0.0, area)) for i in range(n)}


def _euclidean_mst_edges(positions: Dict[int, Point]) -> List[Tuple[int, int]]:
    """Edges of the Euclidean minimum spanning tree (Prim, O(n^2))."""
    nodes = list(positions)
    if len(nodes) <= 1:
        return []
    in_tree = {nodes[0]}
    best_dist = {
        v: positions[nodes[0]].distance_to(positions[v]) for v in nodes[1:]
    }
    best_from = {v: nodes[0] for v in nodes[1:]}
    edges: List[Tuple[int, int]] = []
    while best_dist:
        v = min(best_dist, key=best_dist.get)  # type: ignore[arg-type]
        edges.append((best_from[v], v))
        in_tree.add(v)
        del best_dist[v]
        del best_from[v]
        for w in best_dist:
            d = positions[v].distance_to(positions[w])
            if d < best_dist[w]:
                best_dist[w] = d
                best_from[w] = v
    return edges


def geometric_isp(
    n_nodes: int,
    n_links: int,
    rng: random.Random,
    name: str = "isp",
    area: float = DEFAULT_AREA,
    locality: float = 0.25,
) -> Topology:
    """A connected ISP-like topology with exact node and link counts.

    ``locality`` is the Waxman characteristic distance as a fraction of the
    area diagonal: small values favour short links (strongly geometric
    graphs), large values approach uniform random link selection.
    """
    if n_nodes < 2:
        raise TopologyError(f"need at least 2 nodes, got {n_nodes}")
    max_links = n_nodes * (n_nodes - 1) // 2
    if not (n_nodes - 1) <= n_links <= max_links:
        raise TopologyError(
            f"link count {n_links} outside [{n_nodes - 1}, {max_links}] "
            f"for {n_nodes} nodes"
        )

    positions = random_positions(n_nodes, rng, area)
    topo = Topology(name)
    for node, pos in positions.items():
        topo.add_node(node, pos)

    tree_edges = _euclidean_mst_edges(positions)
    for u, v in tree_edges:
        topo.add_link(u, v)

    remaining = n_links - len(tree_edges)
    if remaining == 0:
        return topo

    scale = locality * area * math.sqrt(2.0)
    candidates: List[Tuple[int, int]] = []
    weights: List[float] = []
    for u in range(n_nodes):
        for v in range(u + 1, n_nodes):
            if topo.has_link(u, v):
                continue
            d = positions[u].distance_to(positions[v])
            candidates.append((u, v))
            weights.append(math.exp(-d / scale))

    # Weighted sampling without replacement.
    for _ in range(remaining):
        total = sum(weights)
        pick = rng.uniform(0.0, total)
        acc = 0.0
        chosen = len(candidates) - 1
        for i, w in enumerate(weights):
            acc += w
            if pick <= acc:
                chosen = i
                break
        u, v = candidates.pop(chosen)
        weights.pop(chosen)
        topo.add_link(u, v)
    return topo


def grid_topology(
    rows: int, cols: int, spacing: float = 100.0, name: str = "grid"
) -> Topology:
    """A ``rows x cols`` grid with unit link costs (planar embedding)."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid dimensions must be positive")
    topo = Topology(name)
    for r in range(rows):
        for c in range(cols):
            topo.add_node(r * cols + c, Point(c * spacing, r * spacing))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                topo.add_link(node, node + 1)
            if r + 1 < rows:
                topo.add_link(node, node + cols)
    return topo
