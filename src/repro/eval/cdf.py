"""Empirical CDF utilities for the figure reproductions."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


def cdf_points(values: Iterable[float]) -> List[Tuple[float, float]]:
    """The empirical CDF as ``(value, P[X <= value])`` step points."""
    data = sorted(values)
    n = len(data)
    if n == 0:
        return []
    points: List[Tuple[float, float]] = []
    for i, v in enumerate(data, start=1):
        if points and points[-1][0] == v:
            points[-1] = (v, i / n)
        else:
            points.append((v, i / n))
    return points


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean / min / max / median of a sample (empty-safe)."""
    if not values:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "median": 0.0}
    data = sorted(values)
    n = len(data)
    mid = data[n // 2] if n % 2 == 1 else (data[n // 2 - 1] + data[n // 2]) / 2.0
    return {
        "count": n,
        "mean": sum(data) / n,
        "min": data[0],
        "max": data[-1],
        "median": mid,
    }
