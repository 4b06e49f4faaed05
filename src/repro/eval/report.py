"""Plain-text rendering of experiment outputs.

The benchmark harness prints "the same rows/series the paper reports";
these helpers turn the experiment drivers' dicts into aligned ASCII tables
and compact CDF sketches, with no plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def format_table(rows: Sequence[Dict], columns: Sequence[str] = ()) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    header = [str(c) for c in cols]
    body = [[_fmt(row.get(c, "")) for c in cols] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(cols))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def format_nested_table(
    data: Dict[str, Dict[str, Dict]], row_label: str = "topology"
) -> str:
    """Render ``outer -> approach -> row`` as one flat table."""
    rows: List[Dict] = []
    for outer, per_approach in data.items():
        if not isinstance(per_approach, dict):
            continue
        for approach, row in per_approach.items():
            if not isinstance(row, dict):
                continue
            rows.append({row_label: outer, **row})
    return format_table(rows)


def format_cdf(
    points: Sequence[Tuple[float, float]],
    probes: Sequence[float] = (0.5, 0.9, 0.95, 0.99, 1.0),
) -> str:
    """A compact one-line sketch of a CDF: value at selected quantiles."""
    if not points:
        return "(empty)"
    parts = []
    for q in probes:
        value = next((x for x, p in points if p >= q), points[-1][0])
        parts.append(f"p{int(q * 100)}={value:.3g}")
    return "  ".join(parts)


def format_series(
    series: Sequence[Tuple[float, float]], max_points: int = 12
) -> str:
    """A down-sampled ``x: y`` rendering of a numeric series."""
    if not series:
        return "(empty)"
    stride = max(1, len(series) // max_points)
    sampled = list(series[::stride])
    if sampled[-1] != series[-1]:
        sampled.append(series[-1])
    return "  ".join(f"{x:g}:{y:.3g}" for x, y in sampled)
