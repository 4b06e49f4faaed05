"""Automatic perf-regression verdicts against pinned baselines.

``repro query regress`` compares the *latest* stored version of each
bench entry against the checked-in ``BENCH_*.json`` baseline files, one
relative-change threshold per metric family, and emits one verdict line
per compared metric::

    ok   table3_recoverable            wall_s 0.3301 -> 0.3355  (+1.6% <= +30%)
    REG  table3_recoverable  span_ms.eval.sweep 198.561 -> 397.122  (+100.0% > +50%)

All gated metrics are lower-is-better timings or deterministic work
counts; only the families below are gated, so payload fields like
``demand_recovery_rate_pct`` (where bigger is better) never false-fail.
Relative regressions whose *absolute* delta sits under the family's
noise floor (``DEFAULT_NOISE_FLOORS``) are downgraded to ok with a
note — millisecond-scale microbenchmark rows double on scheduler
jitter alone.  The exit contract matches ``perf_smoke.py``: zero when
every verdict is ok/skip, nonzero when any metric regressed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import StoreError
from .db import RunStore

#: Relative-increase thresholds per metric family.  ``span_ms`` and
#: ``build_s`` carry more machine noise than the gated wall clock, so
#: they get looser bars; ``sp_computations`` is deterministic for a
#: pinned config, so *any* increase fails.
DEFAULT_THRESHOLDS: Dict[str, float] = {
    "wall_s": 0.30,
    "build_s": 0.50,
    "span_ms": 0.50,
    "sp_computations": 0.0,
}

#: Absolute-increase floors per metric family: a relative regression is
#: only flagged when the raw delta also exceeds the family's floor.
#: Microbenchmark rows (a few milliseconds of wall clock) double on
#: scheduler jitter alone — a +100% blip on 4 ms is noise, while +100%
#: on 400 ms is a regression.  Deterministic counts keep a zero floor.
DEFAULT_NOISE_FLOORS: Dict[str, float] = {
    "wall_s": 0.05,
    "build_s": 0.05,
    "span_ms": 50.0,
    "sp_computations": 0.0,
}

STATUS_OK = "ok"
STATUS_REGRESSION = "REG"
STATUS_SKIP = "skip"


@dataclass
class Verdict:
    """One compared metric of one bench entry."""

    bench: str
    metric: str
    baseline: Optional[float]
    latest: Optional[float]
    threshold: Optional[float]
    status: str
    note: str = ""

    def line(self) -> str:
        if self.status == STATUS_SKIP:
            return f"{self.status:4s} {self.bench:34s} {self.note}"
        change = _relative_change(self.baseline, self.latest)
        detail = (
            f"{_fmt(self.baseline)} -> {_fmt(self.latest)}  "
            f"({change:+.1%} {'<=' if change <= (self.threshold or 0.0) else '>'} "
            f"+{self.threshold:.0%})"
        )
        if self.note:
            detail += f"  [{self.note}]"
        return f"{self.status:4s} {self.bench:34s} {self.metric:28s} {detail}"


def _fmt(value: Optional[float]) -> str:
    return f"{value:.4g}" if value is not None else "-"


def _relative_change(baseline: Optional[float], latest: Optional[float]) -> float:
    """Relative increase of ``latest`` over ``baseline``.

    A zero baseline that grows to any positive value is an infinite
    relative increase — it must trip every finite threshold (e.g.
    ``sp_computations`` 0 -> 5000 under its 0% bar), not silently pass.
    """
    if baseline is None or latest is None:
        return 0.0
    if baseline == 0:
        return math.inf if latest > 0 else 0.0
    return (latest - baseline) / baseline


def threshold_for(metric: str, thresholds: Dict[str, float]) -> Optional[float]:
    """The threshold governing one metric, by exact key then family prefix."""
    if metric in thresholds:
        return thresholds[metric]
    family = metric.split(".", 1)[0]
    return thresholds.get(family)


def gated_metrics(entry: Dict[str, object], thresholds: Dict[str, float]) -> Dict[str, float]:
    """The flat ``metric -> value`` map regress gates for one entry."""
    out: Dict[str, float] = {}
    for key, value in entry.items():
        if isinstance(value, (int, float)) and threshold_for(key, thresholds) is not None:
            out[key] = float(value)
        elif key in thresholds and isinstance(value, dict):
            for leaf, leaf_value in value.items():
                if isinstance(leaf_value, (int, float)):
                    out[f"{key}.{leaf}"] = float(leaf_value)
    return out


def compare_entry(
    name: str,
    baseline: Dict[str, object],
    latest: Optional[Dict[str, object]],
    thresholds: Dict[str, float],
) -> List[Verdict]:
    """Verdicts for one baseline entry against its latest stored row."""
    if latest is None:
        return [
            Verdict(
                bench=name,
                metric="-",
                baseline=None,
                latest=None,
                threshold=None,
                status=STATUS_SKIP,
                note="no stored run for this bench (ingest one first)",
            )
        ]
    verdicts: List[Verdict] = []
    base_metrics = gated_metrics(baseline, thresholds)
    latest_metrics = gated_metrics(latest, thresholds)
    for metric in sorted(base_metrics):
        if metric not in latest_metrics:
            continue
        base_value = base_metrics[metric]
        latest_value = latest_metrics[metric]
        threshold = threshold_for(metric, thresholds)
        assert threshold is not None  # gated_metrics filtered on it
        change = _relative_change(base_value, latest_value)
        status = STATUS_REGRESSION if change > threshold else STATUS_OK
        note = ""
        if status == STATUS_REGRESSION:
            floor = threshold_for(metric, DEFAULT_NOISE_FLOORS) or 0.0
            if latest_value - base_value < floor:
                status = STATUS_OK
                note = f"delta {latest_value - base_value:.4g} under noise floor {floor:g}"
        verdicts.append(
            Verdict(
                bench=name,
                metric=metric,
                baseline=base_value,
                latest=latest_value,
                threshold=threshold,
                status=status,
                note=note,
            )
        )
    return verdicts


def parse_threshold_overrides(specs: Sequence[str]) -> Dict[str, float]:
    """``["wall_s=0.5", "span_ms=1.0"]`` → override map (validated)."""
    overrides: Dict[str, float] = {}
    for spec in specs:
        metric, sep, value = spec.partition("=")
        if not sep or not metric:
            raise StoreError(
                f"bad --threshold {spec!r}; expected METRIC=FRACTION "
                "(e.g. wall_s=0.5)"
            )
        try:
            fraction = float(value)
        except ValueError as exc:
            raise StoreError(f"bad --threshold fraction in {spec!r}") from exc
        if fraction < 0:
            raise StoreError(f"--threshold fraction must be >= 0 in {spec!r}")
        overrides[metric] = fraction
    return overrides


def run_regress(
    store: RunStore,
    baseline_files: Sequence[Path],
    thresholds: Optional[Dict[str, float]] = None,
    benchmark: Optional[str] = None,
    strict: bool = False,
) -> Tuple[List[Verdict], int]:
    """Compare the store's latest rows against pinned baseline files.

    Returns the verdict list plus the process exit code: nonzero when
    any metric regressed, or (``strict``) when a baseline entry has no
    stored row to compare.
    """
    merged = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        merged.update(thresholds)
    verdicts: List[Verdict] = []
    for path in baseline_files:
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable baseline {path}: {exc}") from exc
        for name in sorted(doc):
            if benchmark and benchmark not in name:
                continue
            latest = store.latest_bench_row(name)
            verdicts.extend(
                compare_entry(
                    name,
                    doc[name],
                    latest["payload"] if latest else None,  # type: ignore[index]
                    merged,
                )
            )
    regressed = any(v.status == STATUS_REGRESSION for v in verdicts)
    skipped = any(v.status == STATUS_SKIP for v in verdicts)
    exit_code = 1 if regressed or (strict and skipped) else 0
    return verdicts, exit_code


def summary_line(verdicts: List[Verdict]) -> str:
    """The tally of ``verdicts``: ``regress: N ok, N regressed, N skipped``."""
    counts = {STATUS_OK: 0, STATUS_REGRESSION: 0, STATUS_SKIP: 0}
    for verdict in verdicts:
        counts[verdict.status] += 1
    return (
        f"regress: {counts[STATUS_OK]} ok, "
        f"{counts[STATUS_REGRESSION]} regressed, "
        f"{counts[STATUS_SKIP]} skipped"
    )
