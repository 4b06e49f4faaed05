"""Topology validation and statistics.

Used by the catalog tests and by the Table II benchmark to check that the
synthetic ISP topologies are structurally sane before any experiment runs.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import TopologyError
from .csr import cross_rows
from .graph import Topology


def validate(topo: Topology) -> None:
    """Raise :class:`TopologyError` if ``topo`` violates a basic invariant.

    Checks: at least two nodes and connectivity.  Finite coordinates and
    positive, finite per-direction costs are enforced by
    :meth:`Topology.add_node` / :meth:`Topology.add_link` themselves.
    """
    if topo.node_count < 2:
        raise TopologyError(f"{topo.name}: fewer than 2 nodes")
    if not topo.is_connected():
        raise TopologyError(f"{topo.name}: not connected")


def degree_histogram(topo: Topology) -> Dict[int, int]:
    """Map degree -> number of nodes with that degree."""
    histogram: Dict[int, int] = {}
    for node in topo.nodes():
        d = topo.degree(node)
        histogram[d] = histogram.get(d, 0) + 1
    return histogram


def leaf_count(topo: Topology) -> int:
    """Number of degree-1 nodes (tips of the tree branches of §IV-B)."""
    return sum(1 for node in topo.nodes() if topo.degree(node) == 1)


def average_degree(topo: Topology) -> float:
    """Mean node degree (2m/n)."""
    if topo.node_count == 0:
        return 0.0
    return 2.0 * topo.link_count / topo.node_count


def average_link_length(topo: Topology) -> float:
    """Mean Euclidean link length in the embedding."""
    lengths = [topo.euclidean_length(link) for link in topo.links()]
    if not lengths:
        return 0.0
    return sum(lengths) / len(lengths)


def crossing_count(topo: Topology) -> int:
    """Number of unordered link pairs that properly cross."""
    return sum(map(len, cross_rows(topo))) // 2


def stats(topo: Topology) -> Dict[str, object]:
    """A summary dict used by reports and the Table II benchmark."""
    return {
        "name": topo.name,
        "nodes": topo.node_count,
        "links": topo.link_count,
        "average_degree": round(average_degree(topo), 3),
        "leaves": leaf_count(topo),
        "crossing_pairs": crossing_count(topo),
        "average_link_length": round(average_link_length(topo), 1),
        "connected": topo.is_connected(),
    }


def summarize_catalog(topologies: Dict[str, Topology]) -> List[Dict[str, object]]:
    """Stats rows for a whole catalog build."""
    return [stats(topo) for topo in topologies.values()]
