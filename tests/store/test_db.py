"""Tests for repro.store.db (schema, recording, reads, round-trips)."""

import json

import pytest

from repro.errors import StoreError
from repro.obs import MetricsRegistry, RunManifest, Tracer
from repro.store import SCHEMA_VERSION, RunStore, payload_sha


def make_run(name="demo", seed=1, with_events=True):
    """A (manifest, metrics, spans, events) quadruple like a live run's."""
    reg = MetricsRegistry()
    reg.inc("eval.cases", 7)
    reg.set_gauge("cache.hit_rate", 0.5)
    for value in (0.01, 0.02, 0.4):
        reg.observe("dijkstra.seconds", value)
    tracer = Tracer()
    with tracer.span("sweep"):
        with tracer.span("dijkstra"):
            pass
    manifest = RunManifest(
        name=name, seed=seed, config={"k": seed}, topologies=["AS209"]
    )
    manifest.finish(now=manifest.started_unix + 1.0)
    events = tracer.events if with_events else []
    return manifest.as_dict(), reg.snapshot(), tracer.aggregate_snapshot(), events


class TestSchema:
    def test_fresh_store_is_current_version(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            assert store.schema_version() == SCHEMA_VERSION

    def test_reopen_keeps_version(self, tmp_path):
        path = tmp_path / "s.sqlite"
        RunStore(path).close()
        with RunStore(path) as store:
            assert store.schema_version() == SCHEMA_VERSION

    def test_newer_store_refuses_to_open(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = RunStore(path)
        store._conn.execute(
            "UPDATE schema_version SET version = ?", (SCHEMA_VERSION + 1,)
        )
        store.close()
        with pytest.raises(StoreError, match="newer than this code"):
            RunStore(path)

    def test_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "s.sqlite"
        RunStore(path).close()
        assert path.exists()

    def test_wal_mode(self, tmp_path):
        store = RunStore(tmp_path / "s.sqlite")
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        store.close()
        assert mode == "wal"


class TestRecordRun:
    def test_round_trips_losslessly(self, tmp_path):
        manifest, metrics, spans, events = make_run()
        with RunStore(tmp_path / "s.sqlite") as store:
            run_id = store.record_run(manifest, metrics, spans, events)
            doc = store.run_doc(run_id)
        assert doc["manifest"] == json.loads(json.dumps(manifest))
        assert doc["metrics"] == json.loads(json.dumps(metrics))
        assert doc["span_aggregates"] == json.loads(json.dumps(spans))
        assert doc["events"] == json.loads(json.dumps(list(events)))

    def test_idempotent_per_manifest_identity(self, tmp_path):
        manifest, metrics, spans, events = make_run()
        with RunStore(tmp_path / "s.sqlite") as store:
            first = store.record_run(manifest, metrics, spans, events)
            second = store.record_run(manifest, metrics, spans, events)
            assert first == second
            assert store.counts()["runs"] == 1

    def test_quantile_rows_are_normalized(self, tmp_path):
        manifest, metrics, spans, events = make_run()
        with RunStore(tmp_path / "s.sqlite") as store:
            run_id = store.record_run(manifest, metrics, spans, events)
            rows = {
                (r["kind"], r["name"]): r["value"]
                for r in store.run_metrics(run_id)
            }
        assert rows[("counter", "eval.cases")] == 7
        assert rows[("gauge", "cache.hit_rate")] == 0.5
        assert ("quantile", "dijkstra.seconds.p50") in rows
        assert ("quantile", "dijkstra.seconds.p99") in rows

    def test_wall_clock_columns_land(self, tmp_path):
        manifest, metrics, spans, events = make_run()
        with RunStore(tmp_path / "s.sqlite") as store:
            store.record_run(manifest, metrics, spans, events)
            row = store.runs()[0]
        assert row["started_at"] == manifest["started_at"]
        assert row["duration_s"] == 1.0
        assert row["hostname"] == manifest["hostname"]

    def test_resolve_run_by_id_hash_and_name(self, tmp_path):
        manifest, metrics, spans, events = make_run()
        with RunStore(tmp_path / "s.sqlite") as store:
            run_id = store.record_run(manifest, metrics, spans, events)
            assert store.resolve_run(str(run_id)) == run_id
            assert store.resolve_run(manifest["config_hash"]) == run_id
            assert store.resolve_run("demo") == run_id
            assert store.resolve_run("no-such-thing") is None

    def test_filters(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            for seed in (1, 2):
                manifest, metrics, spans, events = make_run(seed=seed)
                store.record_run(manifest, metrics, spans, events)
            assert len(store.runs(name="demo")) == 2
            assert len(store.runs(topology="AS209")) == 2
            assert len(store.runs(topology="AS1239")) == 0
            one = store.runs(config_hash=RunManifest(name="x", config={"k": 1}).config_hash)
            assert len(one) == 1


class TestBenchRows:
    ENTRY = {"wall_s": 1.0, "cases": 10, "sp_computations": 5}

    def test_dedup_by_payload(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            assert store.record_bench_rows("B.json", {"a": self.ENTRY}) == 1
            assert store.record_bench_rows("B.json", {"a": self.ENTRY}) == 0
            changed = dict(self.ENTRY, wall_s=2.0)
            assert store.record_bench_rows("B.json", {"a": changed}) == 1
            rows = store.bench_rows(name="a")
        assert [r["wall_s"] for r in rows] == [1.0, 2.0]

    def test_latest_bench_row_is_newest_version(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.record_bench_rows("B.json", {"a": self.ENTRY})
            store.record_bench_rows("B.json", {"a": dict(self.ENTRY, wall_s=3.0)})
            latest = store.latest_bench_row("a")
        assert latest["payload"]["wall_s"] == 3.0

    def test_bench_file_doc_reconstructs_latest_state(self, tmp_path):
        doc = {"a": self.ENTRY, "b": dict(self.ENTRY, wall_s=9.0)}
        with RunStore(tmp_path / "s.sqlite") as store:
            store.record_bench_rows("B.json", doc)
            store.record_bench_rows("B.json", {"a": dict(self.ENTRY, wall_s=5.0)})
            rebuilt = store.bench_file_doc("B.json")
        assert rebuilt["b"] == doc["b"]
        assert rebuilt["a"]["wall_s"] == 5.0

    def test_payload_sha_is_content_addressed(self):
        assert payload_sha({"a": 1, "b": 2}) == payload_sha({"b": 2, "a": 1})
        assert payload_sha({"a": 1}) != payload_sha({"a": 2})


class TestArtifacts:
    def test_content_addressed_dedup(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            assert store.record_artifact("t.txt", "hello") is True
            assert store.record_artifact("t.txt", "hello") is False
            assert store.record_artifact("t.txt", "changed") is True
            assert store.counts()["artifacts"] == 2
