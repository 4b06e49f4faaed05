"""Zero-dependency instrumentation for the RTR pipeline.

One module is the single observability surface of the whole system:

* a **metrics registry** (:mod:`repro.obs.registry`) — counters, gauges,
  fixed-bucket histograms;
* a **span tracer** (:mod:`repro.obs.spans`) — nested monotonic timings
  over the Dijkstra/incremental/MRC kernels, SPT cache, RTR phases,
  chaos injections, and evaluation sweeps;
* **run provenance** (:mod:`repro.obs.manifest`,
  :mod:`repro.obs.export`) — every instrumented run emits a manifest
  (seed, git sha, python, config hash, topology ids), a JSONL event
  stream, and a Prometheus text exposition, rendered back by
  ``repro obs report``;
* **logging** (:mod:`repro.obs.logconfig`) — the ``repro``-rooted stdlib
  logger hierarchy.

Gating: observability is **off by default** (``REPRO_OBS=1`` or
:func:`enable` turns it on).  Disabled, every facade call is a boolean
check returning a shared no-op object, so the routing hot paths pay
effectively nothing — asserted by the no-op tests, which require the
pinned Table III sweep to be bit-identical with obs on and off.

The facade is process-global on purpose: instrumentation threads through
layers that never share constructor arguments, and parallel evaluation
workers each own a process-local instance whose snapshot is merged
deterministically into the parent (:mod:`repro.eval.parallel`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

from .atomic import atomic_write_json, atomic_write_text
from .logconfig import configure_logging, get_logger
from .manifest import RunManifest, config_hash, git_sha, iso_utc
from .registry import (
    DEFAULT_EDGES,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    histogram_quantiles,
)
from .spans import NULL_SPAN, Span, SpanAggregate, Tracer
from .export import (
    latest_run_dir,
    load_run,
    render_prometheus,
    render_report,
    run_report_doc,
    write_run_artifacts,
)

__all__ = [
    "DEFAULT_EDGES",
    "Histogram",
    "MetricsRegistry",
    "RunManifest",
    "Span",
    "SpanAggregate",
    "Tracer",
    "atomic_write_json",
    "atomic_write_text",
    "bucket_quantile",
    "config_hash",
    "configure_logging",
    "current_span_id",
    "default_run_dir",
    "disable",
    "enable",
    "enabled",
    "event",
    "gauge",
    "get_logger",
    "git_sha",
    "histogram_quantiles",
    "inc",
    "iso_utc",
    "latest_run_dir",
    "load_run",
    "merge_snapshot",
    "observe",
    "render_prometheus",
    "render_report",
    "reset",
    "run_context",
    "run_report_doc",
    "snapshot",
    "span",
    "write_run_artifacts",
]

#: Environment switch; read once at import, toggled by enable()/disable().
_TRUTHY = ("1", "true", "yes", "on")
_enabled: bool = os.environ.get("REPRO_OBS", "0").strip().lower() in _TRUTHY

#: Process-global state.  Workers in a process pool each get their own
#: copy (fresh after fork+reset or spawn) and ship snapshots back.
metrics = MetricsRegistry()
tracer = Tracer()
_events_custom_count = 0


def enabled() -> bool:
    """Whether instrumentation is currently active in this process."""
    return _enabled


def enable() -> None:
    """Turn instrumentation on in this process (as ``REPRO_OBS=1`` does at import)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn instrumentation off: every facade call is a no-op again."""
    global _enabled
    _enabled = False


# ----------------------------------------------------------------------
# Recording facade — every call is a no-op when disabled
# ----------------------------------------------------------------------


def span(name: str, **attrs):
    """A timed span context manager (shared no-op object when disabled)."""
    if not _enabled:
        return NULL_SPAN
    return tracer.span(name, attrs or None)


def current_span_id() -> Optional[int]:
    """Id of the innermost open span, or ``None`` (always ``None`` when off)."""
    if not _enabled:
        return None
    return tracer.current_span_id()


def inc(name: str, n: float = 1) -> None:
    """Increment a counter."""
    if _enabled:
        metrics.inc(name, n)


def gauge(name: str, value: float) -> None:
    """Set a gauge."""
    if _enabled:
        metrics.set_gauge(name, value)


def observe(name: str, value: float, edges: Optional[Iterable[float]] = None) -> None:
    """Record one histogram observation."""
    if _enabled:
        metrics.observe(name, value, edges)


def event(kind: str, **fields) -> None:
    """Append one custom structured event to the JSONL stream."""
    global _events_custom_count
    if not _enabled:
        return
    if len(tracer.events) < tracer.max_events:
        payload = {"type": kind, "span_id": tracer.current_span_id()}
        payload.update(fields)
        tracer.events.append(payload)
        _events_custom_count += 1
    else:
        tracer.dropped_events += 1


# ----------------------------------------------------------------------
# State management: reset / snapshot / merge
# ----------------------------------------------------------------------


def reset() -> None:
    """Drop every counter, span aggregate, and buffered event."""
    global _events_custom_count
    metrics.clear()
    tracer.reset()
    _events_custom_count = 0


def snapshot() -> Dict[str, object]:
    """Picklable state for cross-process transfer and export."""
    return {
        "metrics": metrics.snapshot(),
        "span_aggregates": tracer.aggregate_snapshot(),
        "dropped_events": tracer.dropped_events,
    }


def merge_snapshot(snap: Dict[str, object]) -> None:
    """Deterministically fold one worker :func:`snapshot` into this process.

    Counters and histogram buckets add, gauges take the max, span
    aggregates merge per path.  Callers must merge payloads in a
    deterministic order (sorted shard order in
    :mod:`repro.eval.parallel`) so float sums are reproducible.
    """
    if not snap:
        return
    metrics.merge(snap.get("metrics", {}))  # type: ignore[arg-type]
    tracer.merge_aggregates(snap.get("span_aggregates", {}))  # type: ignore[arg-type]
    tracer.dropped_events += int(snap.get("dropped_events", 0))  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Run context — manifest + artifact emission around one sweep/bench
# ----------------------------------------------------------------------


def default_run_dir() -> Path:
    """Base directory for run artifacts (``REPRO_OBS_DIR`` or ./obs-runs)."""
    return Path(os.environ.get("REPRO_OBS_DIR", "obs-runs"))


@contextmanager
def run_context(
    name: str,
    seed: Optional[int] = None,
    config: Optional[dict] = None,
    topologies: Sequence[str] = (),
    out_dir: Optional[Path] = None,
    reset_state: bool = True,
):
    """Instrument one run end to end; yields the manifest (or ``None``).

    When enabled: resets process state (unless ``reset_state=False``),
    opens a root span named after the run, and on exit writes
    ``manifest.json`` / ``events.jsonl`` / ``metrics.prom`` /
    ``metrics.json`` into ``<out_dir>/<name>-<config_hash>``.  The
    written directory is exposed as ``manifest.artifacts_dir``.  When
    disabled the body runs untouched and ``None`` is yielded.
    """
    if not _enabled:
        yield None
        return
    if reset_state:
        reset()
    manifest = RunManifest(
        name=name, seed=seed, config=config, topologies=list(topologies)
    )
    try:
        with span(name):
            yield manifest
    finally:
        # Wall-clock end stamp: provenance only, outside every
        # deterministic path and excluded from config_hash.
        manifest.finish()
        base = Path(out_dir) if out_dir is not None else default_run_dir()
        directory = base / f"{name}-{manifest.config_hash}"
        snap = snapshot()
        write_run_artifacts(
            directory,
            manifest.as_dict(),
            snap["metrics"],  # type: ignore[arg-type]
            snap["span_aggregates"],  # type: ignore[arg-type]
            tracer.events,
        )
        manifest.artifacts_dir = str(directory)
