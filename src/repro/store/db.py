"""The sqlite-backed run store: schema, migrations, reads and writes.

One :class:`RunStore` owns a single sqlite file in WAL mode.  Everything
that produces results — instrumented ``repro.obs`` runs, the
``benchmarks/BENCH_*.json`` trajectories, checked-in result artifacts —
lands in a handful of versioned tables:

* ``runs`` — one row per instrumented run: the normalized manifest
  columns for filtering plus the *full* manifest/metrics JSON for
  lossless round-trips (``repro query show --json`` must reproduce
  exactly what :func:`repro.obs.load_run` returns);
* ``metrics`` — normalized counter/gauge/quantile rows per run (the
  quantiles are estimated from histogram buckets at record time, see
  :func:`repro.obs.registry.histogram_quantiles`);
* ``spans`` — per-path span aggregates per run;
* ``run_events`` — the raw JSONL event stream, zlib-compressed;
* ``bench_rows`` — one row per ``BENCH_*.json`` entry *version*: the
  same entry re-ingested is a no-op (payload-sha dedup) while a changed
  entry appends, so row order per bench name is the perf trajectory
  ``repro query trend`` plots;
* ``windows`` — a v2 table that nothing writes; it stays only so that
  stores written at v2 open with no migration;
* ``artifacts`` — checked-in ``benchmarks/results/`` text outputs,
  content-addressed.

Schema evolution is explicit: ``schema_version`` holds the current
version, :data:`MIGRATIONS` maps each old version to the function that
upgrades one step, and opening a store always migrates it forward (never
backward — a store written by a newer version refuses to open).

Concurrency: WAL allows one writer and many readers without blocking;
writers queue on sqlite's own locking with a busy timeout.  Every write
runs inside an ``IMMEDIATE`` transaction, so a crashed writer (even
``kill -9`` mid-commit) rolls back cleanly on the next open — the
store-level analogue of the :mod:`repro.obs.atomic` guarantee.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import StoreError
from ..obs.registry import histogram_quantiles

#: Version written by this code; stores at lower versions are migrated
#: forward on open.
SCHEMA_VERSION = 2

#: Quantile points recorded per histogram into the ``metrics`` table.
QUANTILE_POINTS: Tuple[float, ...] = (0.5, 0.95, 0.99)

_SCHEMA_V1 = """
CREATE TABLE IF NOT EXISTS schema_version (version INTEGER NOT NULL);
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    seed INTEGER,
    git_sha TEXT,
    python TEXT,
    started_unix REAL,
    topologies TEXT NOT NULL DEFAULT '[]',
    source TEXT NOT NULL DEFAULT 'live',
    run_dir TEXT,
    manifest_json TEXT NOT NULL,
    metrics_json TEXT NOT NULL,
    UNIQUE (name, config_hash, started_unix)
);
CREATE INDEX IF NOT EXISTS idx_runs_config_hash ON runs (config_hash);
CREATE INDEX IF NOT EXISTS idx_runs_name ON runs (name);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (run_id, kind, name)
);
CREATE TABLE IF NOT EXISTS spans (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    path TEXT NOT NULL,
    count INTEGER NOT NULL,
    total_s REAL NOT NULL,
    min_s REAL NOT NULL,
    max_s REAL NOT NULL,
    PRIMARY KEY (run_id, path)
);
CREATE TABLE IF NOT EXISTS run_events (
    run_id INTEGER PRIMARY KEY REFERENCES runs (id) ON DELETE CASCADE,
    events_z BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS bench_rows (
    id INTEGER PRIMARY KEY,
    bench_file TEXT NOT NULL,
    name TEXT NOT NULL,
    wall_s REAL,
    cases INTEGER,
    sp_computations INTEGER,
    python TEXT,
    git_sha TEXT,
    config_hash TEXT,
    payload TEXT NOT NULL,
    payload_sha TEXT NOT NULL,
    UNIQUE (bench_file, name, payload_sha)
);
CREATE INDEX IF NOT EXISTS idx_bench_rows_name ON bench_rows (name);
CREATE TABLE IF NOT EXISTS artifacts (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    source_path TEXT,
    sha256 TEXT NOT NULL,
    n_bytes INTEGER NOT NULL,
    text TEXT,
    UNIQUE (name, sha256)
);
"""

_SCHEMA_V2_DELTA = """
ALTER TABLE runs ADD COLUMN started_at TEXT;
ALTER TABLE runs ADD COLUMN finished_at TEXT;
ALTER TABLE runs ADD COLUMN duration_s REAL;
ALTER TABLE runs ADD COLUMN hostname TEXT;
CREATE TABLE IF NOT EXISTS windows (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    window_index INTEGER NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_id, window_index)
);
"""


def _run_script(conn: sqlite3.Connection, script: str) -> None:
    """Run semicolon-separated DDL inside the *current* transaction.

    ``Connection.executescript`` would commit the open transaction
    first, defeating the single-writer schema bootstrap, so the DDL is
    split and executed statement by statement (none of it embeds
    semicolons in literals).
    """
    for statement in script.split(";"):
        if statement.strip():
            conn.execute(statement)


def _migrate_v1_to_v2(conn: sqlite3.Connection) -> None:
    """v1 → v2: wall-clock provenance columns + the ``windows`` table."""
    _run_script(conn, _SCHEMA_V2_DELTA)


#: old version -> single-step upgrade; applied in sequence on open.
MIGRATIONS = {1: _migrate_v1_to_v2}


def _canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_sha(entry: dict) -> str:
    """Content hash of one bench entry (dedup key for re-ingests)."""
    return hashlib.sha256(_canonical(entry).encode("utf-8")).hexdigest()[:16]


class RunStore:
    """One open sqlite run store (WAL); usable as a context manager."""

    def __init__(self, path, timeout_s: float = 30.0, _version: Optional[int] = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=timeout_s)
        self._conn.row_factory = sqlite3.Row
        # Explicit transactions only — the sqlite3 module's implicit
        # BEGIN deferral fights the IMMEDIATE locking we want.
        self._conn.isolation_level = None
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        try:
            self._ensure_schema(_version)
        except BaseException:
            self._conn.close()
            raise

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- schema ---------------------------------------------------------

    def _ensure_schema(self, create_version: Optional[int] = None) -> None:
        """Create or migrate the schema inside one writer transaction.

        ``create_version`` pins the version a *fresh* store is created at
        (test hook for exercising migrations); existing stores always
        migrate to :data:`SCHEMA_VERSION`.
        """
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            fresh = not conn.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' "
                "AND name = 'schema_version'"
            ).fetchone()
            _run_script(conn, _SCHEMA_V1)
            row = conn.execute("SELECT MAX(version) AS v FROM schema_version").fetchone()
            version = row["v"]
            if version is None:
                if not fresh:
                    raise StoreError(
                        f"{self.path} has store tables but no schema_version "
                        "row; refusing to guess its version"
                    )
                version = create_version if create_version is not None else SCHEMA_VERSION
                if version >= 2:
                    _run_script(conn, _SCHEMA_V2_DELTA)
                conn.execute("INSERT INTO schema_version (version) VALUES (?)", (version,))
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        version = self.schema_version()
        if version > SCHEMA_VERSION:
            self.close()
            raise StoreError(
                f"{self.path} is schema v{version}, newer than this code "
                f"(v{SCHEMA_VERSION}); refusing to open"
            )
        if create_version is not None:
            # Test hook: leave the store pinned at the requested version
            # so reopening it exercises the migration path for real.
            return
        while version < SCHEMA_VERSION:
            conn.execute("BEGIN IMMEDIATE")
            try:
                # Re-check under the write lock: a concurrent opener may
                # have migrated between our read and our lock.
                current = conn.execute(
                    "SELECT MAX(version) AS v FROM schema_version"
                ).fetchone()["v"]
                if current == version:
                    MIGRATIONS[version](conn)
                    conn.execute(
                        "UPDATE schema_version SET version = ?", (version + 1,)
                    )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            version = self.schema_version()

    def schema_version(self) -> int:
        row = self._conn.execute(
            "SELECT MAX(version) AS v FROM schema_version"
        ).fetchone()
        return int(row["v"]) if row["v"] is not None else 0

    # -- run recording --------------------------------------------------

    def record_run(
        self,
        manifest: Dict[str, object],
        metrics: Dict[str, object],
        span_aggregates: Dict[str, Dict[str, float]],
        events: Optional[Sequence[dict]] = None,
        source: str = "live",
        run_dir: Optional[str] = None,
    ) -> int:
        """Insert one instrumented run; idempotent per manifest identity.

        The dedup key is ``(name, config_hash, started_unix)`` — writing
        the same run twice (live auto-record followed by an ``obs-runs``
        ingest, say) returns the existing row id without touching it.
        ``source`` is ``live`` for an auto-recorded run and ``ingest``
        for one read back from disk.
        """
        name = str(manifest.get("name", ""))
        chash = str(manifest.get("config_hash", ""))
        started_unix = manifest.get("started_unix")
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            existing = conn.execute(
                "SELECT id FROM runs WHERE name = ? AND config_hash = ? "
                "AND started_unix IS ?",
                (name, chash, started_unix),
            ).fetchone()
            if existing is not None:
                conn.execute("COMMIT")
                return int(existing["id"])
            cursor = conn.execute(
                "INSERT INTO runs (name, config_hash, seed, git_sha, python, "
                "started_unix, topologies, source, run_dir, manifest_json, "
                "metrics_json, started_at, finished_at, duration_s, hostname) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    name,
                    chash,
                    manifest.get("seed"),
                    manifest.get("git_sha"),
                    manifest.get("python"),
                    started_unix,
                    _canonical(manifest.get("topologies", [])),
                    source,
                    run_dir,
                    json.dumps(manifest, sort_keys=True),
                    json.dumps(metrics, sort_keys=True),
                    manifest.get("started_at"),
                    manifest.get("finished_at"),
                    manifest.get("duration_s"),
                    manifest.get("hostname"),
                ),
            )
            run_id = int(cursor.lastrowid)
            self._insert_metrics(run_id, metrics)
            conn.executemany(
                "INSERT INTO spans (run_id, path, count, total_s, min_s, max_s) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        path,
                        int(agg["count"]),
                        float(agg["total_s"]),
                        float(agg.get("min_s", 0.0)),
                        float(agg.get("max_s", 0.0)),
                    )
                    for path, agg in sorted(span_aggregates.items())
                ],
            )
            if events:
                blob = zlib.compress(
                    "".join(
                        json.dumps(e, sort_keys=True) + "\n" for e in events
                    ).encode("utf-8")
                )
                conn.execute(
                    "INSERT INTO run_events (run_id, events_z) VALUES (?, ?)",
                    (run_id, blob),
                )
            conn.execute("COMMIT")
            return run_id
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    def _insert_metrics(self, run_id: int, metrics: Dict[str, object]) -> None:
        rows: List[Tuple[int, str, str, float]] = []
        for kind in ("counters", "gauges"):
            for mname, value in sorted(metrics.get(kind, {}).items()):  # type: ignore[union-attr]
                rows.append((run_id, kind[:-1], mname, float(value)))
        for hname, data in sorted(metrics.get("histograms", {}).items()):  # type: ignore[union-attr]
            for label, value in histogram_quantiles(data, QUANTILE_POINTS).items():
                if value is not None:
                    rows.append((run_id, "quantile", f"{hname}.{label}", float(value)))
        if rows:
            self._conn.executemany(
                "INSERT INTO metrics (run_id, kind, name, value) VALUES (?, ?, ?, ?)",
                rows,
            )

    # -- bench rows -----------------------------------------------------

    def record_bench_rows(self, bench_file: str, entries: Dict[str, dict]) -> int:
        """Append bench entry versions; returns how many rows were new.

        An entry whose payload already exists for ``(bench_file, name)``
        is skipped, so re-ingesting an unchanged ``BENCH_*.json`` is a
        no-op while a refreshed entry extends that bench's trajectory.
        """
        conn = self._conn
        inserted = 0
        conn.execute("BEGIN IMMEDIATE")
        try:
            for name in sorted(entries):
                entry = entries[name]
                sha = payload_sha(entry)
                cursor = conn.execute(
                    "INSERT OR IGNORE INTO bench_rows (bench_file, name, wall_s, "
                    "cases, sp_computations, python, git_sha, config_hash, "
                    "payload, payload_sha) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        bench_file,
                        name,
                        entry.get("wall_s"),
                        entry.get("cases"),
                        entry.get("sp_computations"),
                        entry.get("python"),
                        entry.get("git_sha"),
                        entry.get("config_hash"),
                        json.dumps(entry, sort_keys=True),
                        sha,
                    ),
                )
                inserted += cursor.rowcount
            conn.execute("COMMIT")
            return inserted
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    # -- artifacts ------------------------------------------------------

    def record_artifact(
        self, name: str, text: str, source_path: Optional[str] = None
    ) -> bool:
        """Store one text artifact content-addressed; True if new."""
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO artifacts (name, source_path, sha256, "
                "n_bytes, text) VALUES (?, ?, ?, ?, ?)",
                (name, source_path, sha, len(text.encode("utf-8")), text),
            )
            conn.execute("COMMIT")
            return cursor.rowcount > 0
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    # -- reads ----------------------------------------------------------

    def runs(
        self,
        name: Optional[str] = None,
        config_hash: Optional[str] = None,
        topology: Optional[str] = None,
        scheme: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Run summary rows, oldest first, with optional filters."""
        clauses, params = [], []
        if name:
            clauses.append("name LIKE ?")
            params.append(f"%{name}%")
        if config_hash:
            clauses.append("config_hash = ?")
            params.append(config_hash)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT * FROM runs {where} ORDER BY id", params
        ).fetchall()
        out = []
        for row in rows:
            doc = _run_summary(row)
            if topology and topology not in doc["topologies"]:
                continue
            if scheme and scheme not in _run_schemes(row):
                continue
            out.append(doc)
        return out

    def bench_rows(
        self,
        name: Optional[str] = None,
        bench_file: Optional[str] = None,
        scheme: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Bench entry versions, oldest first, with optional filters."""
        clauses, params = [], []
        if name:
            clauses.append("name LIKE ?")
            params.append(f"%{name}%")
        if bench_file:
            clauses.append("bench_file = ?")
            params.append(bench_file)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT * FROM bench_rows {where} ORDER BY id", params
        ).fetchall()
        out = []
        for row in rows:
            payload = json.loads(row["payload"])
            if scheme and scheme not in payload.get("schemes", []):
                continue
            out.append(
                {
                    "id": row["id"],
                    "bench_file": row["bench_file"],
                    "name": row["name"],
                    "wall_s": row["wall_s"],
                    "cases": row["cases"],
                    "sp_computations": row["sp_computations"],
                    "python": row["python"],
                    "git_sha": row["git_sha"],
                    "config_hash": row["config_hash"],
                    "payload": payload,
                }
            )
        return out

    def latest_bench_row(self, name: str) -> Optional[Dict[str, object]]:
        """The newest version of one bench entry (exact name), if any."""
        row = self._conn.execute(
            "SELECT * FROM bench_rows WHERE name = ? ORDER BY id DESC LIMIT 1",
            (name,),
        ).fetchone()
        if row is None:
            return None
        return {
            "id": row["id"],
            "bench_file": row["bench_file"],
            "name": row["name"],
            "payload": json.loads(row["payload"]),
        }

    def bench_file_doc(self, bench_file: str) -> Dict[str, dict]:
        """Reconstruct a BENCH_*.json document from each entry's latest row."""
        rows = self._conn.execute(
            "SELECT name, payload, MAX(id) FROM bench_rows WHERE bench_file = ? "
            "GROUP BY name ORDER BY name",
            (bench_file,),
        ).fetchall()
        return {row["name"]: json.loads(row["payload"]) for row in rows}

    def resolve_run(self, ref: str) -> Optional[int]:
        """A run id from an id literal, config hash, or name (latest wins)."""
        conn = self._conn
        if ref.isdigit():
            row = conn.execute(
                "SELECT id FROM runs WHERE id = ?", (int(ref),)
            ).fetchone()
            return int(row["id"]) if row else None
        row = conn.execute(
            "SELECT id FROM runs WHERE config_hash = ? ORDER BY id DESC LIMIT 1",
            (ref,),
        ).fetchone()
        if row is not None:
            return int(row["id"])
        row = conn.execute(
            "SELECT id FROM runs WHERE name = ? ORDER BY id DESC LIMIT 1", (ref,)
        ).fetchone()
        return int(row["id"]) if row else None

    def run_doc(self, run_id: int, events: bool = True) -> Dict[str, object]:
        """The full run document, shaped exactly like ``obs.load_run``."""
        row = self._conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise StoreError(f"no run with id {run_id}")
        spans = self._conn.execute(
            "SELECT path, count, total_s, min_s, max_s FROM spans "
            "WHERE run_id = ? ORDER BY path",
            (run_id,),
        ).fetchall()
        doc: Dict[str, object] = {
            "manifest": json.loads(row["manifest_json"]),
            "metrics": json.loads(row["metrics_json"]),
            "span_aggregates": {
                s["path"]: {
                    "count": s["count"],
                    "total_s": s["total_s"],
                    "min_s": s["min_s"],
                    "max_s": s["max_s"],
                }
                for s in spans
            },
            "events": [],
        }
        if events:
            blob = self._conn.execute(
                "SELECT events_z FROM run_events WHERE run_id = ?", (run_id,)
            ).fetchone()
            if blob is not None:
                text = zlib.decompress(blob["events_z"]).decode("utf-8")
                doc["events"] = [
                    json.loads(line) for line in text.splitlines() if line.strip()
                ]
        return doc

    def run_metrics(self, run_id: int) -> List[Dict[str, object]]:
        """Normalized metric rows (counter/gauge/quantile) for one run."""
        rows = self._conn.execute(
            "SELECT kind, name, value FROM metrics WHERE run_id = ? "
            "ORDER BY kind, name",
            (run_id,),
        ).fetchall()
        return [dict(r) for r in rows]

    def artifacts(self) -> List[Dict[str, object]]:
        rows = self._conn.execute(
            "SELECT id, name, source_path, sha256, n_bytes FROM artifacts ORDER BY id"
        ).fetchall()
        return [dict(r) for r in rows]

    def counts(self) -> Dict[str, int]:
        """Row counts per table — the ingest summary."""
        out = {}
        for table in ("runs", "bench_rows", "windows", "artifacts"):
            out[table] = int(
                self._conn.execute(f"SELECT COUNT(*) AS n FROM {table}").fetchone()["n"]
            )
        return out


def _run_summary(row: sqlite3.Row) -> Dict[str, object]:
    return {
        "id": row["id"],
        "name": row["name"],
        "config_hash": row["config_hash"],
        "seed": row["seed"],
        "git_sha": row["git_sha"],
        "python": row["python"],
        "source": row["source"],
        "topologies": json.loads(row["topologies"]),
        "started_at": row["started_at"],
        "finished_at": row["finished_at"],
        "duration_s": row["duration_s"],
        "hostname": row["hostname"],
        "run_dir": row["run_dir"],
    }


def _run_schemes(row: sqlite3.Row) -> List[str]:
    manifest = json.loads(row["manifest_json"])
    config = manifest.get("config") or {}
    schemes: Iterable = config.get("approaches") or config.get("schemes") or []
    return [str(s) for s in schemes]
