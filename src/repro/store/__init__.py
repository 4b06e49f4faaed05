"""The persistent, queryable run store.

Results used to be scattered across ``obs-runs/`` directories,
``benchmarks/results/`` text tables, and the ``BENCH_*.json``
trajectories; answering "did this PR regress the pinned sweep?" meant
eyeballing JSON.  This package gives them one home: a sqlite file in WAL
mode (stdlib-only) keyed by ``config_hash``/:class:`~repro.obs.manifest.
RunManifest`, with

* a versioned schema plus forward migrations (:mod:`repro.store.db`),
* idempotent filesystem ingestion (:mod:`repro.store.ingest`),
* cross-run queries — list/show/diff/trend (:mod:`repro.store.query`),
* pinned-baseline regression verdicts (:mod:`repro.store.regress`).

Live wiring: when :data:`STORE_ENV` (``REPRO_STORE``) points at a store
path, every instrumented run is recorded at
:func:`repro.obs.write_run_artifacts` time and every
``benchmarks/_bench_utils.record_bench`` row is mirrored.  With the
variable unset nothing happens — sweeps stay bit-identical.
"""

from __future__ import annotations

import os
from pathlib import Path

from .db import MIGRATIONS, QUANTILE_POINTS, SCHEMA_VERSION, RunStore, payload_sha
from .ingest import (
    ingest_bench_json,
    ingest_path,
    ingest_results_dir,
    ingest_run_dir,
    ingest_runs_base,
    looks_like_bench_json,
)
from .query import (
    diff_runs,
    list_rows,
    lookup_metric,
    render_diff,
    render_rows,
    render_trend,
    show_doc,
    sparkline,
    trend_series,
)
from .regress import (
    DEFAULT_THRESHOLDS,
    Verdict,
    parse_threshold_overrides,
    run_regress,
    summary_line,
)

__all__ = [
    "DEFAULT_THRESHOLDS",
    "MIGRATIONS",
    "QUANTILE_POINTS",
    "RunStore",
    "SCHEMA_VERSION",
    "STORE_ENV",
    "Verdict",
    "default_store_path",
    "diff_runs",
    "ingest_bench_json",
    "ingest_path",
    "ingest_results_dir",
    "ingest_run_dir",
    "ingest_runs_base",
    "list_rows",
    "lookup_metric",
    "looks_like_bench_json",
    "parse_threshold_overrides",
    "payload_sha",
    "render_diff",
    "render_rows",
    "render_trend",
    "run_regress",
    "show_doc",
    "sparkline",
    "summary_line",
    "trend_series",
]

#: Environment variable naming the store path; set it and every result
#: producer (obs runs, bench rows) records automatically.
STORE_ENV = "REPRO_STORE"


def default_store_path() -> Path:
    """``REPRO_STORE`` if set, else ``<obs run dir>/store.sqlite``."""
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env)
    from ..obs import default_run_dir

    return default_run_dir() / "store.sqlite"
