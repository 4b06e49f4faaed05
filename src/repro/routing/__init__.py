"""Routing substrate: Dijkstra, SPTs, incremental recomputation, tables."""

from .paths import Path
from .spt import ShortestPathTree
from .dijkstra import (
    dijkstra_run_count,
    penalized_shortest_path_tree,
    reverse_shortest_path_tree,
    shortest_path,
    shortest_path_or_none,
    shortest_path_tree,
)
from .cache import SPTCache
from .incremental import PreFailureTree, updated_tree
from .tables import RoutingTable
from .linkstate import ConvergenceConfig, ConvergenceReport, LinkStateProtocol

__all__ = [
    "Path",
    "ShortestPathTree",
    "SPTCache",
    "dijkstra_run_count",
    "penalized_shortest_path_tree",
    "reverse_shortest_path_tree",
    "shortest_path",
    "shortest_path_or_none",
    "shortest_path_tree",
    "PreFailureTree",
    "updated_tree",
    "RoutingTable",
    "ConvergenceConfig",
    "ConvergenceReport",
    "LinkStateProtocol",
]
