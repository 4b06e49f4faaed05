"""Topology serialization and public graph-format loading.

Two layers:

* the repo's own archival format — plain JSON, re-loaded bit-for-bit
  (node ids, coordinates, per-direction costs, and link insertion order
  — the order matters because it defines header link ids);
* :func:`load_graph_file` — a sniffing loader for the public formats
  large real topologies are distributed in: GraphML (topology-zoo
  style), whitespace edge lists (Rocketfuel ``weights.intra`` style),
  Rocketfuel ``.cch``, and the JSON format above.  Like the paper
  (§IV-A), loaded graphs get a seeded uniform-random embedding in the
  simulation area, and are restricted to their largest connected
  component, since routing evaluation requires connectivity.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union
from xml.etree import ElementTree

from ..errors import TopologyError
from ..geometry import Point
from .graph import Topology

FORMAT_VERSION = 1


def topology_to_dict(topo: Topology) -> Dict[str, Any]:
    """A JSON-serializable representation of ``topo``."""
    return {
        "format": FORMAT_VERSION,
        "name": topo.name,
        "nodes": [
            {"id": node, "x": topo.position(node).x, "y": topo.position(node).y}
            for node in sorted(topo.nodes())
        ],
        "links": [
            {
                "u": link.u,
                "v": link.v,
                "cost": topo.cost(link.u, link.v),
                "reverse_cost": topo.cost(link.v, link.u),
            }
            for link in topo.links()
        ],
    }


def topology_from_dict(data: Dict[str, Any]) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output."""
    if data.get("format") != FORMAT_VERSION:
        raise TopologyError(f"unsupported topology format: {data.get('format')!r}")
    topo = Topology(data.get("name", "topology"))
    for node in data["nodes"]:
        topo.add_node(int(node["id"]), Point(float(node["x"]), float(node["y"])))
    for link in data["links"]:
        topo.add_link(
            int(link["u"]),
            int(link["v"]),
            cost=float(link["cost"]),
            reverse_cost=float(link["reverse_cost"]),
        )
    return topo


def save_topology(topo: Topology, path: Union[str, Path]) -> None:
    """Write ``topo`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(topology_to_dict(topo), indent=2))


def load_topology(path: Union[str, Path]) -> Topology:
    """Read a topology previously written by :func:`save_topology`."""
    return topology_from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Public graph formats
# ----------------------------------------------------------------------

_GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"

#: GraphML edge-data keys accepted as a link cost, in preference order.
_GRAPHML_WEIGHT_KEYS = ("weight", "cost", "metric", "igp_metric")


def parse_graphml(text: str) -> List[Tuple[str, str, float]]:
    """Parse GraphML into ``(source, target, weight)`` string edges.

    Handles both namespaced and bare-element documents.  An edge's cost
    comes from the first ``<data>`` bound to a ``<key>`` whose
    ``attr.name`` is one of :data:`_GRAPHML_WEIGHT_KEYS` (or whose id is
    such a name directly); everything else defaults to 1.
    """
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise TopologyError(f"malformed GraphML: {exc}") from exc
    ns = _GRAPHML_NS if root.tag.startswith(_GRAPHML_NS) else ""
    weight_ids = {}
    for key in root.iter(f"{ns}key"):
        attr_name = (key.get("attr.name") or key.get("id") or "").lower()
        if key.get("for", "edge") == "edge" and attr_name in _GRAPHML_WEIGHT_KEYS:
            weight_ids[key.get("id")] = _GRAPHML_WEIGHT_KEYS.index(attr_name)
    edges: List[Tuple[str, str, float]] = []
    for edge in root.iter(f"{ns}edge"):
        source, target = edge.get("source"), edge.get("target")
        if source is None or target is None:
            raise TopologyError("GraphML edge without source/target")
        weight, weight_rank = 1.0, len(_GRAPHML_WEIGHT_KEYS)
        for data in edge.findall(f"{ns}data"):
            rank = weight_ids.get(data.get("key"), None)
            if rank is None or rank >= weight_rank:
                continue
            try:
                value = float((data.text or "").strip())
            except ValueError:
                continue  # non-numeric annotation under a weight-like key
            if value > 0:
                weight, weight_rank = value, rank
        edges.append((source, target, weight))
    if not edges:
        raise TopologyError("GraphML document contains no edges")
    return edges


def sniff_graph_format(path: Path, text: str) -> str:
    """``json``, ``graphml``, ``cch``, or ``edges`` for a graph file."""
    suffix = path.suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix in (".graphml", ".xml"):
        return "graphml"
    if suffix == ".cch":
        return "cch"
    head = text.lstrip()[:4096]
    if head.startswith("{"):
        return "json"
    if head.startswith("<") and "graphml" in head.lower():
        return "graphml"
    return "edges"


def load_graph_file(path: Union[str, Path], seed: int = 0) -> Topology:
    """Load a topology from any supported graph file format.

    The format is sniffed from the suffix and content
    (:func:`sniff_graph_format`).  Non-JSON formats are embedded uniformly
    at random in the simulation area using ``seed`` (the repo's JSON
    format carries its own exact coordinates) and restricted to the
    largest connected component.
    """
    from . import rocketfuel

    target = Path(path)
    try:
        text = target.read_text()
    except OSError as exc:
        raise TopologyError(f"cannot read {target}: {exc}") from exc
    fmt = sniff_graph_format(target, text)
    if fmt == "json":
        return topology_from_dict(json.loads(text))
    if fmt == "graphml":
        edges = parse_graphml(text)
    elif fmt == "cch":
        edges = rocketfuel.parse_cch(text.splitlines())
    else:
        edges = rocketfuel.parse_edge_list(text.splitlines())
    return rocketfuel.topology_from_edges(
        edges, rng=random.Random(seed), name=target.stem
    )
