"""Hardened run_sharded: requeue, pool rebuild, bounded retry, fallback.

The soak service streams hour-scale batches through this machinery, so
the contract under test is brutal: a worker SIGKILLed mid-shard must not
change a single byte of the sweep's results, a flaky-once shard must
succeed on requeue, and a deterministically-failing shard must surface
its real exception from the parent after bounded retries.
"""

import os
import signal

import pytest

from repro import obs
from repro.eval.sharding import (
    POOL_REBUILD_COUNTER,
    RETRIES_EXHAUSTED_COUNTER,
    RETRY_COUNTER,
    run_sharded,
)


def _ok(value):
    return [value, value * 10]


def _kill_once(marker, value):
    """SIGKILL the hosting process on first call, succeed afterwards."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return [value, value * 10]


def _fail_outside_pid(parent_pid, value):
    """Fail in every pool worker, succeed only in the parent process."""
    if os.getpid() != parent_pid:
        raise RuntimeError("injected worker failure")
    return [value, value * 10]


def _always_fail(value):
    raise ValueError(f"deterministic bug in shard {value}")


def _expected(keys):
    return {k: [k, k * 10] for k in keys}


class TestSigkilledWorker:
    def test_results_bit_identical_after_worker_sigkill(self, tmp_path):
        marker = str(tmp_path / "killed-once")
        tasks = [(0, _ok, (0,)), (1, _kill_once, (marker, 1)), (2, _ok, (2,))]
        results = run_sharded(tasks, span_name="test.shard", workers=2, backoff_s=0.0)
        assert results == _expected([0, 1, 2])
        assert os.path.exists(marker), "the kill branch must have run"

    def test_retry_and_rebuild_counters(self, tmp_path):
        marker = str(tmp_path / "killed-once")
        tasks = [(0, _ok, (0,)), (1, _kill_once, (marker, 1))]
        with obs.temporarily_enabled():
            obs.reset()
            results = run_sharded(
                tasks, span_name="test.shard", workers=2, backoff_s=0.0
            )
            counters = obs.snapshot()["metrics"]["counters"]
        assert results == _expected([0, 1])
        assert counters.get(RETRY_COUNTER, 0) >= 1
        assert counters.get(POOL_REBUILD_COUNTER, 0) >= 1
        assert RETRIES_EXHAUSTED_COUNTER not in counters


class TestBoundedRetries:
    def test_exhausted_shard_runs_in_parent(self):
        tasks = [(0, _ok, (0,)), (1, _fail_outside_pid, (os.getpid(), 1))]
        with obs.temporarily_enabled():
            obs.reset()
            results = run_sharded(
                tasks,
                span_name="test.shard",
                workers=2,
                max_attempts=2,
                backoff_s=0.0,
            )
            counters = obs.snapshot()["metrics"]["counters"]
        assert results == _expected([0, 1])
        assert counters.get(RETRIES_EXHAUSTED_COUNTER, 0) == 1
        # one requeue into round 2 plus the final parent-serial run
        assert counters.get(RETRY_COUNTER, 0) == 2

    def test_deterministic_error_surfaces_with_real_traceback(self):
        tasks = [(0, _always_fail, (0,))]
        with pytest.raises(ValueError, match="deterministic bug in shard 0"):
            run_sharded(
                tasks,
                span_name="test.shard",
                workers=1,
                max_attempts=2,
                backoff_s=0.0,
            )

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError, match="max_attempts"):
            run_sharded([], span_name="test.shard", workers=1, max_attempts=0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_validated(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_sharded([(0, _ok, (0,))], span_name="test.shard", workers=workers)


class TestShardDurationHistogram:
    def test_every_shard_observes_its_duration(self):
        from repro.eval.sharding import SHARD_SECONDS_HISTOGRAM

        tasks = [(k, _ok, (k,)) for k in range(3)]
        with obs.temporarily_enabled():
            obs.reset()
            results = run_sharded(tasks, span_name="test.shard", workers=2)
            histograms = obs.snapshot()["metrics"]["histograms"]
        assert results == _expected([0, 1, 2])
        assert histograms[SHARD_SECONDS_HISTOGRAM]["count"] == 3

    def test_parent_serial_fallback_also_observes(self):
        from repro.eval.sharding import SHARD_SECONDS_HISTOGRAM

        tasks = [(0, _fail_outside_pid, (os.getpid(), 0))]
        with obs.temporarily_enabled():
            obs.reset()
            results = run_sharded(
                tasks,
                span_name="test.shard",
                workers=1,
                max_attempts=1,
                backoff_s=0.0,
            )
            histograms = obs.snapshot()["metrics"]["histograms"]
        assert results == _expected([0])
        assert histograms[SHARD_SECONDS_HISTOGRAM]["count"] == 1

    def test_disabled_obs_records_nothing(self):
        tasks = [(0, _ok, (0,))]
        assert not obs.enabled()
        obs.reset()
        run_sharded(tasks, span_name="test.shard", workers=1)
        assert obs.snapshot()["metrics"]["histograms"] == {}
