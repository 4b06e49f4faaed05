"""Topology statistics.

:func:`stats` is the summary row behind ``repro topo stats``; the other
functions are its columns.
"""

from __future__ import annotations

from typing import Dict

from .csr import cross_rows
from .graph import Topology


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
    return len(cross_rows(topo).ids) // 2


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
