"""Tests for the versioned schema and the v1 -> v2 migration."""

import sqlite3

import pytest

from repro.errors import StoreError
from repro.store import MIGRATIONS, SCHEMA_VERSION, RunStore

from .test_db import make_run


def _columns(path, table):
    conn = sqlite3.connect(str(path))
    try:
        return {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}
    finally:
        conn.close()


def _tables(path):
    conn = sqlite3.connect(str(path))
    try:
        return {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    finally:
        conn.close()


class TestMigrationV1ToV2:
    def test_migrations_cover_every_old_version(self):
        assert set(MIGRATIONS) == set(range(1, SCHEMA_VERSION))

    def test_v1_store_lacks_v2_surface(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = RunStore(path, _version=1)
        assert store.schema_version() == 1
        store.close()
        assert "windows" not in _tables(path)
        assert "started_at" not in _columns(path, "runs")

    def test_reopen_migrates_forward(self, tmp_path):
        path = tmp_path / "s.sqlite"
        RunStore(path, _version=1).close()
        with RunStore(path) as store:
            assert store.schema_version() == SCHEMA_VERSION
        assert "windows" in _tables(path)
        assert {"started_at", "finished_at", "duration_s", "hostname"} <= _columns(
            path, "runs"
        )

    def test_v1_data_survives_migration(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = RunStore(path, _version=1)
        # A v1 writer records without the wall-clock columns.
        store._conn.execute(
            "INSERT INTO runs (name, config_hash, manifest_json, metrics_json) "
            "VALUES ('old', 'cafe', '{\"name\": \"old\"}', '{}')"
        )
        store.record_bench_rows("B.json", {"a": {"wall_s": 1.0, "cases": 3}})
        store.close()
        with RunStore(path) as migrated:
            runs = migrated.runs(name="old")
            assert len(runs) == 1
            # Columns added by the migration read as NULL for old rows.
            assert runs[0]["started_at"] is None
            assert runs[0]["hostname"] is None
            assert migrated.bench_rows(name="a")[0]["wall_s"] == 1.0

    def test_migrated_store_accepts_v2_writes(self, tmp_path):
        path = tmp_path / "s.sqlite"
        RunStore(path, _version=1).close()
        manifest, metrics, spans, events = make_run()
        with RunStore(path) as store:
            store.record_run(manifest, metrics, spans, events)
            assert store.runs()[0]["started_at"] == manifest["started_at"]

    def test_migration_is_idempotent_across_reopens(self, tmp_path):
        path = tmp_path / "s.sqlite"
        RunStore(path, _version=1).close()
        for _ in range(3):
            RunStore(path).close()
        with RunStore(path) as store:
            assert store.schema_version() == SCHEMA_VERSION


class TestVersionGuards:
    def test_missing_version_row_refuses_to_guess(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = RunStore(path)
        store._conn.execute("DELETE FROM schema_version")
        store.close()
        with pytest.raises(StoreError, match="no schema_version row"):
            RunStore(path)

    def test_plain_sqlite_file_without_store_tables_bootstraps(self, tmp_path):
        path = tmp_path / "s.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute("CREATE TABLE unrelated (x INTEGER)")
        conn.commit()
        conn.close()
        # No schema_version table at all counts as fresh: bootstrap it.
        with RunStore(path) as store:
            assert store.schema_version() == SCHEMA_VERSION
