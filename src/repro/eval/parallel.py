"""Parallel experiment execution for paper-scale runs.

The paper's evaluation is 10,000 + 10,000 cases on each of eight
topologies.  Fanning out one task per topology caps the useful worker
count at the catalog size (8), so these wrappers shard *within* each
topology as well: every topology's case list (or scenario list, for
traffic sweeps) is split into contiguous seed-stable chunks, and each
(topology, shard) pair becomes one process-pool task — a 32-core box is
saturated even on a single-topology run.

Determinism: topology, case set, demand matrix, flows and scenario list
are pure functions of the task arguments (the generators are
process-independent), and per-case results depend only on (topology,
scenario, case, approach config).  A shard always contains whole
scenarios, so each scenario's protocol state (phase-1 walks, phase-2
trees, FCP headers) is built exactly as the serial runner builds it.
Workers return raw record lists; the parent concatenates them in shard
order — which *is* serial order — and hands them to the record → table
reductions the serial drivers call
(:func:`~repro.eval.experiments.table3_from_records` and siblings), so
serial and sharded tables are equal by construction (and asserted by
tests).

Workers memoize what they build per process (a
:class:`~concurrent.futures.ProcessPoolExecutor` reuses processes), so
topology build, case generation and engine provisioning are paid once
per worker, not once per shard.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .cases import CaseSet, TestCase
from .experiments import (
    TrafficSweep,
    generate_case_set,
    table3_from_records,
    table4_from_records,
    traffic_table_from_records,
)
from .metrics import CaseRecord
from .runner import ALL_APPROACHES, EvaluationRunner
from .sharding import run_sharded

# Module-level work functions: ProcessPoolExecutor requires picklable
# callables.  They also serve run_sharded's parent-side serial retry.


def shard_cases(case_set: CaseSet, n_shards: int) -> List[List[TestCase]]:
    """Split cases into ``n_shards`` contiguous, scenario-aligned chunks.

    Scenarios are kept whole (per-scenario protocol state must be built
    exactly as in a serial run) and stay in serial order, so concatenating
    the shards reproduces the serial case order.  Chunks are balanced by
    case count; trailing shards may be empty when there are fewer
    scenarios than shards.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    groups = sorted(case_set.by_scenario().items())
    total = sum(len(cases) for _, cases in groups)
    shards: List[List[TestCase]] = [[] for _ in range(n_shards)]
    done = 0
    index = 0
    for _, cases in groups:
        while index < n_shards - 1 and done * n_shards >= (index + 1) * total:
            index += 1
        shards[index].extend(cases)
        done += len(cases)
    return shards


def shard_scenario_indices(n_scenarios: int, n_shards: int) -> List[List[int]]:
    """Split ``range(n_scenarios)`` into contiguous balanced chunks.

    Contiguity keeps the merged record list in serial scenario order;
    trailing shards may be empty when there are fewer scenarios than
    shards.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    base, extra = divmod(n_scenarios, n_shards)
    shards: List[List[int]] = []
    start = 0
    for s in range(n_shards):
        size = base + (1 if s < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


#: Per-process memos: pool processes handle many shards of the same
#: topology; only the first pays for the case draw / engine provisioning.
_worker_case_set = lru_cache(maxsize=None)(generate_case_set)
_worker_traffic = lru_cache(maxsize=None)(TrafficSweep.build)


def _run_case_shard(
    name: str,
    n_rec: int,
    n_irr: int,
    seed: int,
    approaches: Tuple[str, ...],
    shard_index: int,
    n_shards: int,
) -> Dict[str, List[CaseRecord]]:
    """Run the cases of one (topology, shard) chunk."""
    topo, case_set, cache = _worker_case_set(name, n_rec, n_irr, seed)
    shard = shard_cases(case_set, n_shards)[shard_index]
    runner = EvaluationRunner(
        topo, routing=case_set.routing, approaches=approaches, sp_cache=cache
    )
    return runner.run_cases(case_set, shard)


def _run_traffic_shard(
    sweep: TrafficSweep, shard_index: int, n_shards: int
) -> Dict[str, list]:
    """Run the scenarios of one (topology, scenario-shard) chunk."""
    engine, scenarios = _worker_traffic(sweep)
    records: Dict[str, list] = {a: [] for a in sweep.approaches}
    for index in shard_scenario_indices(sweep.n_scenarios, n_shards)[shard_index]:
        per_approach = engine.run_scenario(scenarios[index], index)
        for a in sweep.approaches:
            records[a].append(per_approach[a])
    return records


def _gather(
    span_name: str,
    work: Callable[..., Dict[str, list]],
    work_args: Sequence[Tuple[str, tuple]],
    jobs: Optional[int],
    shards_per_topology: Optional[int],
    max_shards: Optional[int] = None,
) -> Iterator[Tuple[str, Dict[str, list]]]:
    """Fan ``work(*args, shard, n_shards)`` out per (topology, shard) and
    yield ``(topology, {approach -> records in serial order})``.

    ``work_args`` is one ``(topology, args)`` pair per table row.  Pool
    mechanics (worker obs snapshots, requeue, parent-side serial retry,
    sorted snapshot merge) live in :func:`repro.eval.sharding.run_sharded`;
    tasks are submitted individually so per-shard failures stay isolated.
    """
    workers = jobs if jobs is not None else (os.cpu_count() or 1)
    n_shards = shards_per_topology if shards_per_topology is not None else workers
    if max_shards is not None:
        n_shards = min(n_shards, max_shards)
    n_shards = max(1, n_shards)
    by_shard = run_sharded(
        [
            ((name, s), work, (*args, s, n_shards))
            for name, args in work_args
            for s in range(n_shards)
        ],
        span_name=span_name,
        workers=workers,
    )
    for name, _ in work_args:
        shards = [by_shard[(name, s)] for s in range(n_shards)]
        yield name, {a: [r for shard in shards for r in shard[a]] for a in shards[0]}


def _sharded_table(
    from_records: Callable[..., Dict[str, Dict]],
    topologies: Sequence[str],
    n_recoverable: int,
    n_irrecoverable: int,
    seed: int,
    approaches: Sequence[str],
    jobs: Optional[int],
    shards_per_topology: Optional[int],
) -> Dict[str, Dict]:
    """One case-sharded table: gather the records, apply the serial reduction."""
    approaches = tuple(approaches)
    return from_records(
        _gather(
            "eval.parallel",
            _run_case_shard,
            [
                (name, (name, n_recoverable, n_irrecoverable, seed, approaches))
                for name in topologies
            ],
            jobs,
            shards_per_topology,
        ),
        approaches,
    )


def parallel_traffic(
    topologies: Sequence[str],
    n_scenarios: int,
    seed: int = 0,
    model: str = "gravity",
    total_demand: Optional[float] = None,
    n_flows: Optional[int] = None,
    approaches: Sequence[str] = ("RTR", "FCP"),
    jobs: Optional[int] = None,
    shards_per_topology: Optional[int] = None,
    congestion_aware: bool = False,
    headroom: Optional[float] = None,
    utilization_cap: Optional[float] = None,
) -> Dict[str, Dict]:
    """Traffic-weighted Table III via scenario-sharded pool execution.

    Each (topology, scenario-shard) pair is one pool task; every
    per-scenario :class:`~repro.traffic.TrafficScenarioRecord` is a pure
    function of ``(topology, matrix, flows, scenario)``, so the output
    equals :func:`~repro.eval.experiments.traffic_weighted_table3` for
    the same arguments (asserted by tests).
    """
    approaches = tuple(approaches)
    sweeps = [
        TrafficSweep(
            name,
            n_scenarios,
            seed,
            model,
            total_demand,
            n_flows,
            approaches,
            congestion_aware,
            headroom,
            utilization_cap,
        )
        for name in topologies
    ]
    return traffic_table_from_records(
        _gather(
            "traffic.parallel",
            _run_traffic_shard,
            [(sweep.name, (sweep,)) for sweep in sweeps],
            jobs,
            shards_per_topology,
            max_shards=n_scenarios,
        ),
        approaches,
    )


def parallel_table3(
    topologies: Sequence[str],
    n_cases: int,
    seed: int = 0,
    approaches: Sequence[str] = ALL_APPROACHES,
    jobs: Optional[int] = None,
    shards_per_topology: Optional[int] = None,
) -> Dict[str, Dict]:
    """Table III via case-sharded process-pool execution.

    Output equals :func:`~repro.eval.experiments.table3_recoverable` for
    the same seed.
    """
    return _sharded_table(
        table3_from_records,
        topologies,
        n_cases,
        0,
        seed,
        approaches,
        jobs,
        shards_per_topology,
    )


def parallel_table4(
    topologies: Sequence[str],
    n_cases: int,
    seed: int = 0,
    approaches: Sequence[str] = ("RTR", "FCP"),
    jobs: Optional[int] = None,
    shards_per_topology: Optional[int] = None,
) -> Dict[str, Dict]:
    """Table IV via case-sharded process-pool execution.

    Output equals :func:`~repro.eval.experiments.table4_wasted_summary`
    for the same seed, including the headline ``Savings`` entry.
    """
    return _sharded_table(
        table4_from_records,
        topologies,
        0,
        n_cases,
        seed,
        approaches,
        jobs,
        shards_per_topology,
    )
