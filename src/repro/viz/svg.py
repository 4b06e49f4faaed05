"""SVG rendering of topologies, failures, and recovery traces.

Produces self-contained SVG documents (no dependencies) like the paper's
Figs. 1/2/6: the embedded topology, the failure area, failed routers and
links, the phase-1 walk (dotted), and the recovery path (dashed).  Used
by ``examples/visualize_recovery.py`` and handy when debugging sweep
behaviour on a new topology.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..failures import FailureScenario
from ..geometry import Circle, FailureRegion, Polygon, UnionRegion
from ..topology import Topology

#: Palette (colorblind-safe-ish).
COLOR_LINK = "#b0b0b0"
COLOR_FAILED_LINK = "#d62728"
COLOR_NODE = "#1f77b4"
COLOR_FAILED_NODE = "#d62728"
COLOR_REGION = "#d62728"
COLOR_WALK = "#2ca02c"
COLOR_RECOVERY = "#9467bd"
COLOR_DEFAULT_PATH = "#ff7f0e"


class SvgCanvas:
    """Accumulates SVG elements in a topology-coordinate viewport."""

    def __init__(self, topo: Topology, width: int = 900, margin: float = 60.0) -> None:
        xs = [topo.position(n).x for n in topo.nodes()]
        ys = [topo.position(n).y for n in topo.nodes()]
        self.min_x, self.max_x = min(xs) - margin, max(xs) + margin
        self.min_y, self.max_y = min(ys) - margin, max(ys) + margin
        span_x = max(self.max_x - self.min_x, 1.0)
        span_y = max(self.max_y - self.min_y, 1.0)
        self.width = width
        self.height = int(width * span_y / span_x)
        self.scale = width / span_x
        self.elements: List[str] = []

    def tx(self, x: float) -> float:
        """Topology x -> pixel x."""
        return (x - self.min_x) * self.scale

    def ty(self, y: float) -> float:
        """Topology y -> pixel y (SVG's y axis points down)."""
        return self.height - (y - self.min_y) * self.scale

    def line(self, x1, y1, x2, y2, color, width=1.5, dash: Optional[str] = None) -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line x1="{self.tx(x1):.1f}" y1="{self.ty(y1):.1f}" '
            f'x2="{self.tx(x2):.1f}" y2="{self.ty(y2):.1f}" '
            f'stroke="{color}" stroke-width="{width}"{dash_attr}/>'
        )

    def circle(self, x, y, r_px, fill, stroke="none", opacity=1.0) -> None:
        self.elements.append(
            f'<circle cx="{self.tx(x):.1f}" cy="{self.ty(y):.1f}" r="{r_px:.1f}" '
            f'fill="{fill}" stroke="{stroke}" opacity="{opacity}"/>'
        )

    def region_circle(self, x, y, r_topo, color, opacity=0.15) -> None:
        self.elements.append(
            f'<circle cx="{self.tx(x):.1f}" cy="{self.ty(y):.1f}" '
            f'r="{r_topo * self.scale:.1f}" fill="{color}" opacity="{opacity}" '
            f'stroke="{color}" stroke-dasharray="6,4"/>'
        )

    def polygon(self, points, color, opacity=0.15) -> None:
        coords = " ".join(f"{self.tx(p.x):.1f},{self.ty(p.y):.1f}" for p in points)
        self.elements.append(
            f'<polygon points="{coords}" fill="{color}" opacity="{opacity}" '
            f'stroke="{color}" stroke-dasharray="6,4"/>'
        )

    def polyline(self, xy_pairs, color, width=2.5, dash: Optional[str] = None) -> None:
        coords = " ".join(
            f"{self.tx(x):.1f},{self.ty(y):.1f}" for x, y in xy_pairs
        )
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr} stroke-linejoin="round"/>'
        )

    def text(self, x, y, content, size=11, color="#333333") -> None:
        self.elements.append(
            f'<text x="{self.tx(x):.1f}" y="{self.ty(y) - 8:.1f}" '
            f'font-size="{size}" fill="{color}" text-anchor="middle" '
            f'font-family="sans-serif">{html.escape(content)}</text>'
        )

    def to_svg(self, title: str = "") -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">'
        )
        title_el = f"<title>{html.escape(title)}</title>" if title else ""
        return head + title_el + "".join(self.elements) + "</svg>"


def _draw_region(canvas: SvgCanvas, region: FailureRegion) -> None:
    if isinstance(region, UnionRegion):
        for sub in region.regions:
            _draw_region(canvas, sub)
    elif isinstance(region, Circle):
        canvas.region_circle(
            region.center.x, region.center.y, region.radius, COLOR_REGION
        )
    elif isinstance(region, Polygon):
        canvas.polygon(region.vertices, COLOR_REGION)
    # Other FailureRegion kinds are skipped: failed elements are
    # highlighted individually anyway.


def render_topology(
    topo: Topology,
    scenario: Optional[FailureScenario] = None,
    walk: Optional[Sequence[int]] = None,
    recovery_path: Optional[Sequence[int]] = None,
    default_path: Optional[Sequence[int]] = None,
    width: int = 900,
    labels: bool = True,
    title: str = "",
) -> str:
    """Render the topology (and optional failure/recovery overlays) as SVG.

    ``walk`` is a node sequence (e.g. ``Phase1Result.walk``),
    ``recovery_path`` / ``default_path`` node sequences of paths.  Returns
    the SVG document as a string.
    """
    canvas = SvgCanvas(topo, width=width)

    if scenario is not None and scenario.region is not None:
        _draw_region(canvas, scenario.region)

    for link in topo.links():
        a, b = topo.position(link.u), topo.position(link.v)
        failed = scenario is not None and not scenario.is_link_live(link)
        canvas.line(
            a.x,
            a.y,
            b.x,
            b.y,
            COLOR_FAILED_LINK if failed else COLOR_LINK,
            width=1.2,
            dash="4,4" if failed else None,
        )

    def draw_node_path(nodes: Sequence[int], color: str, dash: str) -> None:
        pts = [(topo.position(n).x, topo.position(n).y) for n in nodes]
        canvas.polyline(pts, color, dash=dash)

    if default_path:
        draw_node_path(default_path, COLOR_DEFAULT_PATH, dash="10,4")
    if walk:
        draw_node_path(walk, COLOR_WALK, dash="2,5")
    if recovery_path:
        draw_node_path(recovery_path, COLOR_RECOVERY, dash="8,3")

    for node in topo.nodes():
        pos = topo.position(node)
        failed = scenario is not None and not scenario.is_node_live(node)
        canvas.circle(
            pos.x,
            pos.y,
            6.0,
            COLOR_FAILED_NODE if failed else COLOR_NODE,
            stroke="#ffffff",
        )
        if labels:
            canvas.text(pos.x, pos.y, f"v{node}")

    return canvas.to_svg(title=title)


def save_svg(svg: str, path: Union[str, Path]) -> Path:
    """Write an SVG document to ``path`` and return it."""
    target = Path(path)
    target.write_text(svg)
    return target
