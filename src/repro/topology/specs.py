"""One-string topology specs shared by the CLI and eval layers.

A spec is resolved in order:

* ``grid:RxC`` or ``grid:RxC:SPACING`` — a synthetic grid
  (:func:`~repro.topology.generators.grid_topology`), the fast option
  for smoke runs and tests;
* ``scale:N`` (``N`` supports a ``k`` suffix: ``scale:50k``) — an
  ``N``-node hierarchical backbone/PoP/access ISP topology
  (:func:`~repro.topology.scale.scale_topology`), the internet-scale
  profile; deterministic in ``(N, seed)``;
* ``file:PATH`` — any supported public graph format (GraphML, edge
  list, Rocketfuel ``.cch``, archival JSON) via
  :func:`~repro.topology.io.load_graph_file`;
* an ``AS`` name (``AS1239``) — built from the Table II catalog;
* anything else — a topology JSON path for
  :func:`~repro.topology.io.load_topology`.

Errors are always :class:`~repro.errors.EvaluationError` with a
one-line, user-facing message — the CLI prints them verbatim and exits
2 instead of dumping a traceback.
"""

from __future__ import annotations

import re
from pathlib import Path

from ..errors import EvaluationError, ReproError
from .generators import grid_topology
from .graph import Topology
from . import isp_catalog
from .io import load_graph_file, load_topology
from .scale import scale_topology

_GRID_RE = re.compile(r"^grid:(\d+)x(\d+)(?::(\d+(?:\.\d+)?))?$", re.IGNORECASE)
_SCALE_RE = re.compile(r"^scale:(\d+)(k?)$", re.IGNORECASE)


def topology_from_spec(spec: str, seed: int = 0) -> Topology:
    """Resolve ``spec`` to a topology; raise ``EvaluationError`` if unusable."""
    spec = spec.strip()
    match = _GRID_RE.match(spec)
    if match:
        rows, cols = int(match.group(1)), int(match.group(2))
        if rows < 2 or cols < 2:
            raise EvaluationError(
                f"grid spec {spec!r} needs at least 2x2 nodes"
            )
        spacing = float(match.group(3)) if match.group(3) else 100.0
        return grid_topology(rows, cols, spacing=spacing)
    if spec.lower().startswith("grid:"):
        raise EvaluationError(
            f"malformed grid spec {spec!r}; expected grid:RxC or grid:RxC:SPACING"
        )
    match = _SCALE_RE.match(spec)
    if match:
        n = int(match.group(1)) * (1000 if match.group(2) else 1)
        try:
            return scale_topology(n, seed=seed)
        except ReproError as exc:
            raise EvaluationError(f"bad scale spec {spec!r}: {exc}") from exc
    if spec.lower().startswith("scale:"):
        raise EvaluationError(
            f"malformed scale spec {spec!r}; expected scale:N or scale:Nk"
        )
    if spec.lower().startswith("file:"):
        path = spec[5:]
        if not path:
            raise EvaluationError("empty file: topology spec")
        if not Path(path).exists():
            raise EvaluationError(f"topology file not found: {path}")
        try:
            return load_graph_file(path, seed=seed)
        except (ReproError, ValueError, KeyError, OSError) as exc:
            raise EvaluationError(f"cannot load topology {path!r}: {exc}") from exc
    if spec.upper().startswith("AS") and not Path(spec).exists():
        return isp_catalog.build(spec.upper(), seed=seed)
    if not Path(spec).exists():
        raise EvaluationError(
            f"unknown topology {spec!r}: not a grid/scale/file spec, not a "
            "catalog AS name, and no such file"
        )
    try:
        return load_topology(spec)
    except (ReproError, ValueError, KeyError, OSError) as exc:
        raise EvaluationError(f"cannot load topology {spec!r}: {exc}") from exc
