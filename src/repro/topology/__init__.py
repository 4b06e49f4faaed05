"""Topology substrate: embedded graphs, generators, and the Table II catalog."""

from .graph import Link, Topology
from .generators import (
    DEFAULT_AREA,
    geometric_isp,
    grid_topology,
    random_positions,
)
from . import isp_catalog
from .io import load_topology, save_topology, topology_from_dict, topology_to_dict
from .specs import topology_from_spec
from . import validation

__all__ = [
    "Link",
    "Topology",
    "DEFAULT_AREA",
    "geometric_isp",
    "grid_topology",
    "random_positions",
    "isp_catalog",
    "load_topology",
    "save_topology",
    "topology_from_dict",
    "topology_from_spec",
    "topology_to_dict",
    "validation",
]
