"""Shared shard-map/merge/retry machinery for process-pool sweeps.

Both parallel drivers — case-sharded tables (:mod:`repro.eval.parallel`)
and scenario-sharded traffic sweeps — need the same scaffolding around
their per-shard work functions: fan tasks out to a
:class:`~concurrent.futures.ProcessPoolExecutor`, reset each worker's
process-local obs state and ship its snapshot back, requeue failed
shards with bounded retry + exponential backoff (rebuilding the pool
when a worker death broke it), and fold worker snapshots into one
registry in sorted key order so float sums are reproducible.  That
scaffolding lives here, once; the drivers supply only their work
function and task keys, and any registered recovery scheme runs
through it unchanged.

Because each work function is deterministic in its arguments, a shard
rerun after a ``SIGKILL``-ed worker produces records bit-identical to an
undisturbed run; the regression tests assert exactly that.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

from .. import obs

log = obs.get_logger(__name__)

#: One pool task: ``(key, run_fn, args)``.  ``key`` orders the snapshot
#: merge and indexes the result; ``run_fn`` must be a module-level
#: (picklable) callable invoked as ``run_fn(*args)`` — in the worker on
#: the happy path, in the parent once pool retries are exhausted.
ShardTask = Tuple[Hashable, Callable[..., Any], tuple]

#: Counter bumped once per shard requeue (pool resubmission or final
#: parent-serial run); both drivers share it so one dashboard query
#: covers every sweep flavor.
RETRY_COUNTER = "eval.parallel.retries"

#: Counter bumped once per shard that exhausted its pool attempts and
#: fell back to the parent-serial path.
RETRIES_EXHAUSTED_COUNTER = "eval.parallel.retries_exhausted"

#: Counter bumped once per process pool rebuilt after breaking.
POOL_REBUILD_COUNTER = "eval.parallel.pool_rebuilds"

#: Histogram of per-shard work-function wall time, observed in the
#: worker (pool path) or the parent (exhausted-retries fallback), so
#: ``repro obs report`` can show the shard p50/p95/p99 balance.
SHARD_SECONDS_HISTOGRAM = "eval.shard.seconds"


def _pool_task(payload: Tuple[Callable[..., Any], tuple]) -> tuple:
    """Run one shard in a pool process, bracketed by obs reset/snapshot.

    When instrumentation is on, the worker's process-local obs state is
    reset at task start and its snapshot shipped back with the records,
    so the parent can fold per-shard counters and span aggregates into
    one registry (see :func:`run_sharded`).
    """
    run_fn, args = payload
    if obs.enabled():
        obs.reset()
    start = time.perf_counter()
    records = run_fn(*args)
    obs.observe(SHARD_SECONDS_HISTOGRAM, time.perf_counter() - start)
    snap = obs.snapshot() if obs.enabled() else None
    return records, snap


def run_sharded(
    tasks: Sequence[ShardTask],
    span_name: str,
    workers: int,
    max_attempts: int = 3,
    backoff_s: float = 0.05,
    backoff_factor: float = 2.0,
) -> Dict[Hashable, Any]:
    """Execute ``tasks`` on a process pool and return ``key -> result``.

    Failure handling, in order:

    1. A shard whose worker dies (pool crash, pickling failure, injected
       chaos SIGKILLing the process) is requeued for the next round, up
       to ``max_attempts`` pool rounds total, sleeping
       ``backoff_s * backoff_factor**(round-1)`` before each retry
       round.  Each round runs on a fresh pool, so a
       :class:`BrokenProcessPool` left by a dead worker never poisons
       the retries (:data:`POOL_REBUILD_COUNTER` tracks rebuilds).
    2. A shard still failing after ``max_attempts`` rounds bumps
       :data:`RETRIES_EXHAUSTED_COUNTER` and runs serially in the
       parent — deterministic errors (real bugs) therefore surface with
       a genuine traceback instead of a pool crash.

    Tasks are submitted individually (no chunking) so per-shard failures
    stay isolated.  Successful workers ship obs snapshots merged in
    sorted key order after all shards complete, keeping float sums — and
    therefore whole-sweep outputs — bit-identical however many retries
    happened.  The fan-out runs under one ``span_name`` span with a
    ``shards`` attribute.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    results: Dict[Hashable, Any] = {}
    snapshots: Dict[Hashable, dict] = {}
    pending: List[ShardTask] = list(tasks)
    with obs.span(span_name, shards=len(tasks)):
        for attempt in range(1, max_attempts + 1):
            if not pending:
                break
            if attempt > 1:
                delay = backoff_s * backoff_factor ** (attempt - 2)
                log.warning(
                    "retry round %d/%d for %d shard(s) after %.3fs backoff",
                    attempt,
                    max_attempts,
                    len(pending),
                    delay,
                )
                if delay > 0:
                    time.sleep(delay)
                for _ in pending:
                    obs.inc(RETRY_COUNTER)
            failed: List[ShardTask] = []
            pool_broke = False
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    (task, pool.submit(_pool_task, (task[1], task[2])))
                    for task in pending
                ]
                for task, future in futures:
                    key = task[0]
                    try:
                        records, snap = future.result()
                    except BrokenProcessPool:
                        # A worker death broke the whole pool; every
                        # un-collected shard lands here and requeues.
                        pool_broke = True
                        failed.append(task)
                        continue
                    except Exception as exc:  # noqa: BLE001 — shard isolation
                        log.warning(
                            "worker for shard %s failed (%s: %s); requeueing",
                            key,
                            type(exc).__name__,
                            exc,
                        )
                        failed.append(task)
                        continue
                    results[key] = records
                    if snap is not None:
                        snapshots[key] = snap
            if pool_broke:
                obs.inc(POOL_REBUILD_COUNTER)
                log.warning(
                    "process pool broke with %d shard(s) outstanding; "
                    "a fresh pool serves the next round",
                    len(failed),
                )
            pending = failed
        for key, run_fn, args in pending:
            obs.inc(RETRY_COUNTER)
            obs.inc(RETRIES_EXHAUSTED_COUNTER)
            log.error(
                "shard %s exhausted %d pool attempt(s); running serially "
                "in parent",
                key,
                max_attempts,
            )
            start = time.perf_counter()
            results[key] = run_fn(*args)
            obs.observe(SHARD_SECONDS_HISTOGRAM, time.perf_counter() - start)
        for key in sorted(snapshots):
            obs.merge_snapshot(snapshots[key])
    return results
