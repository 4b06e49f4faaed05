"""Tests for the repro.obs facade (gating, state management, run_context)."""

import logging

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts disabled with empty registries and ends restored."""
    prior = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    obs.reset()
    if prior:
        obs.enable()
    else:
        obs.disable()


class TestGating:
    def test_disabled_facade_is_noop(self):
        obs.inc("c")
        obs.gauge("g", 1.0)
        obs.observe("h", 0.5)
        obs.event("custom", detail=1)
        with obs.span("s"):
            assert obs.current_span_id() is None
        snap = obs.snapshot()
        assert snap["metrics"] == {"counters": {}, "gauges": {}, "histograms": {}}
        assert snap["span_aggregates"] == {}

    def test_disabled_span_is_shared_object(self):
        assert obs.span("a") is obs.span("b")

    def test_enabled_records(self):
        obs.enable()
        obs.inc("c", 2)
        with obs.span("s"):
            obs.event("custom", detail=1)
        snap = obs.snapshot()
        assert snap["metrics"]["counters"]["c"] == 2
        assert snap["span_aggregates"]["s"]["count"] == 1
        kinds = [e["type"] for e in obs.tracer.events]
        assert kinds == ["custom", "span"]  # span closes after the event
        # The custom event is correlated to its enclosing span.
        assert obs.tracer.events[0]["span_id"] == obs.tracer.events[1]["span_id"]

    def test_reset_clears_everything(self):
        obs.enable()
        obs.inc("c")
        with obs.span("s"):
            pass
        obs.reset()
        snap = obs.snapshot()
        assert snap["metrics"]["counters"] == {}
        assert snap["span_aggregates"] == {}


class TestMergeSnapshot:
    def test_worker_snapshot_folds_in(self):
        obs.enable()
        obs.inc("eval.cases", 3)
        worker = {
            "metrics": {
                "counters": {"eval.cases": 5, "rtr.phase1.walks": 2},
                "gauges": {},
                "histograms": {},
            },
            "span_aggregates": {
                "rtr.phase1": {"count": 2, "total_s": 0.5, "min_s": 0.2, "max_s": 0.3}
            },
            "dropped_events": 1,
        }
        obs.merge_snapshot(worker)
        snap = obs.snapshot()
        assert snap["metrics"]["counters"]["eval.cases"] == 8
        assert snap["metrics"]["counters"]["rtr.phase1.walks"] == 2
        assert snap["span_aggregates"]["rtr.phase1"]["count"] == 2
        assert obs.tracer.dropped_events == 1

    def test_empty_snapshot_is_noop(self):
        obs.merge_snapshot({})


class TestRunContext:
    def test_disabled_yields_none_and_writes_nothing(self, tmp_path):
        with obs.run_context("r", out_dir=tmp_path) as manifest:
            assert manifest is None
        assert list(tmp_path.iterdir()) == []

    def test_enabled_writes_artifacts(self, tmp_path):
        obs.enable()
        with obs.run_context(
            "r", seed=4, config={"n": 1}, topologies=["AS209"], out_dir=tmp_path
        ) as manifest:
            obs.inc("c")
            with obs.span("inner"):
                pass
        assert manifest.artifacts_dir is not None
        run = obs.load_run(manifest.artifacts_dir)
        assert run["manifest"]["seed"] == 4
        assert run["metrics"]["counters"]["c"] == 1
        # The body ran under a root span named after the run.
        assert run["span_aggregates"]["r"]["count"] == 1
        assert run["span_aggregates"]["r/inner"]["count"] == 1

    def test_artifacts_written_even_when_body_raises(self, tmp_path):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.run_context("r", out_dir=tmp_path):
                obs.inc("c")
                raise RuntimeError("boom")
        run_dir = obs.latest_run_dir(tmp_path)
        assert run_dir is not None
        assert obs.load_run(run_dir)["metrics"]["counters"]["c"] == 1


class TestLogging:
    def test_get_logger_roots_names(self):
        assert obs.get_logger("repro.core.rtr").name == "repro.core.rtr"
        assert obs.get_logger("core.rtr").name == "repro.core.rtr"

    def test_silent_without_configuration(self):
        root = logging.getLogger("repro")
        assert any(
            isinstance(h, logging.NullHandler) for h in root.handlers
        )

    def test_configure_logging_is_idempotent(self):
        root = obs.configure_logging("WARNING")
        try:
            n = len(root.handlers)
            root2 = obs.configure_logging("DEBUG")
            assert root2 is root
            assert len(root.handlers) == n
            assert root.level == logging.DEBUG
        finally:
            for handler in list(root.handlers):
                if handler.get_name() == "repro-obs":
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            obs.configure_logging("NOT_A_LEVEL")
