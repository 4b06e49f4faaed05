"""Parallel experiment execution for paper-scale runs.

The paper's evaluation is 10,000 + 10,000 cases on each of eight
topologies.  Fanning out one task per topology caps the useful worker
count at the catalog size (8), so these wrappers shard *within* each
topology as well: every topology's case list is split into seed-stable
chunks on scenario boundaries, and each (topology, shard) pair becomes
one process-pool task — a 32-core box is saturated even on a
single-topology run.

Determinism: case generation depends only on ``(name, counts, seed)``;
per-case results depend only on (topology, scenario, case, approach
config), and a shard always contains whole scenarios, so each scenario's
protocol state (phase-1 walks, phase-2 trees, FCP headers) is built
exactly as the serial runner builds it.  Workers return raw
:class:`~repro.eval.metrics.CaseRecord` lists; the parent reassembles
them in serial order and feeds the *same* summary code paths as the
serial drivers — Table III / Table IV output is bit-identical to
:func:`~repro.eval.experiments.table3_recoverable` /
:func:`~repro.eval.experiments.table4_wasted_summary` for the same seed
(asserted by tests).

Workers memoize the generated case set per process (a
:class:`~concurrent.futures.ProcessPoolExecutor` reuses processes), so
the per-topology generation cost is paid once per worker, not once per
shard.

Large topologies skip the per-worker rebuild entirely: the parent
exports the graph's flat arrays into one ``multiprocessing``
shared-memory block (:mod:`repro.topology.shm`) and ships workers a
small picklable spec; each worker attaches the block and its numpy CSR
mirror aliases the shared pages zero-copy.  ``REPRO_SHM=off|force``
overrides the node-count threshold; without numpy the rebuild path is
used unchanged.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..routing import SPTCache
from ..topology.shm import (
    ShmTopologySpec,
    TopologyExport,
    attach_topology,
    export_topology,
    shm_eligible,
    shm_mode,
    shm_supported,
)
from .cases import CaseSet, TestCase, generate_cases
from .metrics import (
    CaseRecord,
    savings_ratio,
    summarize_irrecoverable,
    summarize_recoverable,
)
from .runner import ALL_APPROACHES, EvaluationRunner
from .sharding import ShardTask, run_sharded

# Module-level workers: ProcessPoolExecutor requires picklable callables.

#: Per-process memo of generated case sets, keyed by the generation
#: parameters.  Pool processes handle many shards of the same topology;
#: only the first pays the generation cost.
_WORKER_STATE: Dict[tuple, tuple] = {}


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


def _shared_exports(
    topologies: Sequence[str], seed: int
) -> Dict[str, TopologyExport]:
    """Export each eligible topology once for a parallel run.

    Callers must release every export in a ``finally`` — the exports are
    refcounted, so overlapping runs (and ``run_sharded``'s pool-rebuild
    retry rounds, which all happen within one export's lifetime) share
    blocks instead of duplicating them.
    """
    exports: Dict[str, TopologyExport] = {}
    if not shm_supported() or shm_mode() == "off":
        return exports
    from .experiments import _build_topology

    for name in topologies:
        topo = _build_topology(name, seed)
        if shm_eligible(topo):
            exports[name] = export_topology(topo)
    return exports


def _worker_topology(name: str, seed: int, shm_spec: Optional[ShmTopologySpec]):
    if shm_spec is not None:
        return attach_topology(shm_spec)
    from .experiments import _build_topology

    return _build_topology(name, seed)


def _worker_case_set(
    name: str,
    n_recoverable: int,
    n_irrecoverable: int,
    seed: int,
    shm_spec: Optional[ShmTopologySpec] = None,
) -> tuple:
    key = (name, n_recoverable, n_irrecoverable, seed)
    state = _WORKER_STATE.get(key)
    if state is None:
        topo = _worker_topology(name, seed, shm_spec)
        rng = random.Random(seed * 7_919 + 13)
        cache = SPTCache()
        case_set = generate_cases(
            topo, rng, n_recoverable, n_irrecoverable, cache=cache
        )
        state = (topo, case_set, cache)
        _WORKER_STATE[key] = state
    return state


def _run_shard(
    name: str,
    n_rec: int,
    n_irr: int,
    seed: int,
    approaches: Tuple[str, ...],
    shard_index: int,
    n_shards: int,
    shm_spec: Optional[ShmTopologySpec] = None,
) -> Dict[str, List[CaseRecord]]:
    """Run one (topology, shard) chunk — shared by workers and the
    parent-side serial retry (which must not touch obs state)."""
    topo, case_set, cache = _worker_case_set(name, n_rec, n_irr, seed, shm_spec)
    shard = shard_cases(case_set, n_shards)[shard_index]
    runner = EvaluationRunner(
        topo, routing=case_set.routing, approaches=approaches, sp_cache=cache
    )
    return runner.run_cases(case_set, shard)


def _gather_records(
    topologies: Sequence[str],
    n_recoverable: int,
    n_irrecoverable: int,
    seed: int,
    approaches: Sequence[str],
    jobs: Optional[int],
    shards_per_topology: Optional[int],
) -> Dict[str, Dict[str, List[CaseRecord]]]:
    """Fan (topology, shard) tasks out and reassemble serial-order records.

    Pool mechanics (worker obs snapshots, parent-side serial retry,
    sorted snapshot merge) live in :func:`repro.eval.sharding.run_sharded`.
    Tasks are submitted individually so per-shard failures stay isolated.
    """
    workers = jobs if jobs is not None else (os.cpu_count() or 1)
    n_shards = shards_per_topology if shards_per_topology is not None else workers
    n_shards = max(1, n_shards)
    approaches = tuple(approaches)
    exports = _shared_exports(topologies, seed)
    try:
        tasks: List[ShardTask] = [
            (
                (name, s),
                _run_shard,
                (
                    name,
                    n_recoverable,
                    n_irrecoverable,
                    seed,
                    approaches,
                    s,
                    n_shards,
                    exports[name].spec if name in exports else None,
                ),
            )
            for name in topologies
            for s in range(n_shards)
        ]
        by_shard = run_sharded(tasks, span_name="eval.parallel", workers=workers)
    finally:
        for export in exports.values():
            export.release()
    merged: Dict[str, Dict[str, List[CaseRecord]]] = {}
    for name in topologies:
        merged[name] = {a: [] for a in approaches}
        for s in range(n_shards):
            for a in approaches:
                merged[name][a].extend(by_shard[(name, s)][a])
    return merged


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


#: Per-process memo of traffic engines, keyed by the full generation
#: parameter tuple — matrix, flow apportionment, capacities, and the
#: scenario list are all deterministic functions of the key.
_TRAFFIC_WORKER_STATE: Dict[tuple, tuple] = {}


def _worker_traffic_engine(
    name: str,
    model: str,
    total_demand: float,
    n_flows: int,
    seed: int,
    n_scenarios: int,
    approaches: Tuple[str, ...],
    shm_spec: Optional[ShmTopologySpec] = None,
    congestion_aware: bool = False,
    headroom: Optional[float] = None,
    utilization_cap: Optional[float] = None,
) -> tuple:
    key = (
        name,
        model,
        total_demand,
        n_flows,
        seed,
        n_scenarios,
        approaches,
        congestion_aware,
        headroom,
        utilization_cap,
    )
    state = _TRAFFIC_WORKER_STATE.get(key)
    if state is None:
        from ..traffic import (
            DEFAULT_HEADROOM,
            TrafficEngine,
            aggregate_flows,
            generate_matrix,
        )
        from .experiments import traffic_scenario_list

        topo = _worker_topology(name, seed, shm_spec)
        matrix = generate_matrix(topo, model, total_demand=total_demand, seed=seed)
        flow_set = aggregate_flows(matrix, n_flows)
        scenarios = traffic_scenario_list(topo, seed, n_scenarios)
        engine = TrafficEngine(
            topo,
            flow_set,
            approaches=approaches,
            congestion_aware=congestion_aware,
            headroom=DEFAULT_HEADROOM if headroom is None else headroom,
            utilization_cap=utilization_cap,
        )
        state = (engine, scenarios)
        _TRAFFIC_WORKER_STATE[key] = state
    return state


def _run_traffic_shard(
    name: str,
    model: str,
    total_demand: float,
    n_flows: int,
    seed: int,
    n_scenarios: int,
    approaches: Tuple[str, ...],
    shard_index: int,
    n_shards: int,
    shm_spec: Optional[ShmTopologySpec] = None,
    congestion_aware: bool = False,
    headroom: Optional[float] = None,
    utilization_cap: Optional[float] = None,
) -> Dict[str, list]:
    """Run one (topology, scenario-shard) chunk — shared by workers and
    the parent-side serial retry (which must not touch obs state)."""
    engine, scenarios = _worker_traffic_engine(
        name,
        model,
        total_demand,
        n_flows,
        seed,
        n_scenarios,
        approaches,
        shm_spec,
        congestion_aware,
        headroom,
        utilization_cap,
    )
    indices = shard_scenario_indices(n_scenarios, n_shards)[shard_index]
    records: Dict[str, list] = {a: [] for a in approaches}
    for index in indices:
        per_approach = engine.run_scenario(scenarios[index], index)
        for a in approaches:
            records[a].append(per_approach[a])
    return records


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
    function of ``(topology, matrix, flows, scenario)``, so the parent's
    merge in scenario order feeds :func:`~repro.traffic.summarize_traffic`
    the exact record sequence of the serial driver — output is
    bit-identical to
    :func:`~repro.eval.experiments.traffic_weighted_table3` for the same
    arguments (asserted by tests).  Failed shards are retried serially in
    the parent; worker obs snapshots merge in sorted (topology, shard)
    order.
    """
    from ..traffic import (
        DEFAULT_TOTAL_DEMAND,
        merge_scenario_records,
        summarize_traffic,
    )
    from .experiments import DEFAULT_TRAFFIC_FLOWS

    demand = DEFAULT_TOTAL_DEMAND if total_demand is None else total_demand
    flows = DEFAULT_TRAFFIC_FLOWS if n_flows is None else n_flows
    approaches = tuple(approaches)
    workers = jobs if jobs is not None else (os.cpu_count() or 1)
    n_shards = shards_per_topology if shards_per_topology is not None else workers
    n_shards = max(1, min(n_shards, max(1, n_scenarios)))
    exports = _shared_exports(topologies, seed)
    try:
        tasks: List[ShardTask] = [
            (
                (name, s),
                _run_traffic_shard,
                (
                    name,
                    model,
                    demand,
                    flows,
                    seed,
                    n_scenarios,
                    approaches,
                    s,
                    n_shards,
                    exports[name].spec if name in exports else None,
                    congestion_aware,
                    headroom,
                    utilization_cap,
                ),
            )
            for name in topologies
            for s in range(n_shards)
        ]
        by_shard = run_sharded(tasks, span_name="traffic.parallel", workers=workers)
    finally:
        for export in exports.values():
            export.release()
    results: Dict[str, Dict] = {}
    pooled: Dict[str, list] = {a: [] for a in approaches}
    for name in topologies:
        merged = {
            a: merge_scenario_records(
                [by_shard[(name, s)][a] for s in range(n_shards)]
            )
            for a in approaches
        }
        results[name] = {
            a: summarize_traffic(merged[a]).as_dict() for a in approaches
        }
        for a in approaches:
            pooled[a].extend(merged[a])
    results["Overall"] = {
        a: summarize_traffic(pooled[a]).as_dict() for a in approaches
    }
    return results


def parallel_table3(
    topologies: Sequence[str],
    n_cases: int,
    seed: int = 0,
    approaches: Sequence[str] = ALL_APPROACHES,
    jobs: Optional[int] = None,
    shards_per_topology: Optional[int] = None,
) -> Dict[str, Dict]:
    """Table III via case-sharded process-pool execution.

    Output is bit-identical to
    :func:`~repro.eval.experiments.table3_recoverable` for the same seed.
    """
    merged = _gather_records(
        topologies, n_cases, 0, seed, approaches, jobs, shards_per_topology
    )
    results: Dict[str, Dict] = {}
    pooled: Dict[str, List[CaseRecord]] = {a: [] for a in approaches}
    for name in topologies:
        recoverable = {
            a: [r for r in merged[name][a] if r.case.recoverable] for a in approaches
        }
        results[name] = {
            a: summarize_recoverable(recoverable[a]).as_dict() for a in approaches
        }
        for a in approaches:
            pooled[a].extend(recoverable[a])
    results["Overall"] = {
        a: summarize_recoverable(pooled[a]).as_dict() for a in approaches
    }
    return results


def parallel_table4(
    topologies: Sequence[str],
    n_cases: int,
    seed: int = 0,
    approaches: Sequence[str] = ("RTR", "FCP"),
    jobs: Optional[int] = None,
    shards_per_topology: Optional[int] = None,
) -> Dict[str, Dict]:
    """Table IV via case-sharded process-pool execution.

    Output is bit-identical to
    :func:`~repro.eval.experiments.table4_wasted_summary` for the same
    seed, including the headline ``Savings`` entry.
    """
    merged = _gather_records(
        topologies, 0, n_cases, seed, approaches, jobs, shards_per_topology
    )
    results: Dict[str, Dict] = {}
    pooled: Dict[str, List[CaseRecord]] = {a: [] for a in approaches}
    for name in topologies:
        irrecoverable = {
            a: [r for r in merged[name][a] if not r.case.recoverable]
            for a in approaches
        }
        results[name] = {
            a: summarize_irrecoverable(irrecoverable[a]).as_dict() for a in approaches
        }
        for a in approaches:
            pooled[a].extend(irrecoverable[a])
    overall = {a: summarize_irrecoverable(pooled[a]) for a in approaches}
    results["Overall"] = {a: overall[a].as_dict() for a in approaches}
    if "RTR" in overall and "FCP" in overall:
        results["Savings"] = {
            "computation_saved_pct": round(
                100.0
                * savings_ratio(
                    overall["FCP"].avg_wasted_computation,
                    overall["RTR"].avg_wasted_computation,
                ),
                1,
            ),
            "transmission_saved_pct": round(
                100.0
                * savings_ratio(
                    overall["FCP"].avg_wasted_transmission,
                    overall["RTR"].avg_wasted_transmission,
                ),
                1,
            ),
        }
    return results
