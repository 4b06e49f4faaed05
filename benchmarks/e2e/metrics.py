"""Metric names, units and directions, and the reduction of a trace to them.

The names are the benchmark's contract: ``BENCHMARK.json`` lists the same
ones (``test_bench_e2e.py`` checks that), and later changes are judged on
them, so they are only ever added to.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import ROOT_SPAN, Tracer, resolve

#: End-to-end metrics of the report: name -> (unit, better).  The first
#: four are also ``BENCHMARK.json``'s; ``failed_share`` is always 0 on a
#: correct run, so the driver sees it as ``failed`` / ``attempted`` instead.
END_TO_END = {
    "sweep_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cases_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "failed_share": ("ratio", "lower"),
}

SCHEMES = ("RTR", "FCP", "MRC", "OSPF", "Oracle", "r3")

#: Self-time metrics: metric name -> span name.
_TIMED = {
    f"{span}_s": span
    for span in (
        "topology.build", "topology.csr", "geometry.cross_links", "failures.scenario_gen",
        "routing.spt", "routing.incremental", "routing.penalized", "routing.edge_loads",
        "routing.table_warm", "simulator.walk_execute", "core.phase1", "core.phase2_tree",
        "eval.case_gen", "eval.runner_init", "eval.run", "eval.summarize",
        "traffic.matrix", "traffic.flows", "traffic.provision", "traffic.engine_init",
        "traffic.classify", "te.penalty",
    )
}
_TIMED["traffic.scenario_self_s"] = "traffic.scenario"  # = WINDOW_SPAN
for _scheme in SCHEMES:
    for _stage in ("prepare", "instantiate", "recover"):
        _TIMED[f"schemes.{_scheme}.{_stage}_s"] = f"schemes.{_scheme}.{_stage}"

#: Call-count metrics: metric name -> span name.
_CALLS = {
    "geometry.cross_links_calls": "geometry.cross_links",
    "routing.incremental_updates": "routing.incremental",
    "routing.penalized_runs": "routing.penalized",
    "routing.edge_loads_calls": "routing.edge_loads",
    "simulator.walk_batches": "simulator.walk_execute",
    "core.phase1_walks": "core.phase1",
    **{f"schemes.{s}.attempts": f"schemes.{s}.recover" for s in SCHEMES},
}

#: The program's own public run counters: metric name -> (module, function).
PROCESS_COUNTERS = {
    "routing.spt_runs": ("repro.routing", "dijkstra_run_count"),
    "routing.spt_numpy_runs": ("repro.routing.kernels", "numpy_run_count"),
    "simulator.walks_batched": ("repro.simulator.batch", "batched_walk_count"),
}

_HIGHER = {
    "routing.cache_hits", "routing.cache_hit_ratio", "simulator.walks_batched",
    "simulator.vector_share", "traffic.pairs_per_case",
}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "pairs_per_case")):  # incl. bench.wall_ratio
        return "ratio"
    if name == "te.shed_demand":
        return "demand"
    return "count"


def _per_layer_names() -> List[str]:
    names = [
        "topology.build_s", "topology.csr_s", "topology.nodes", "topology.links",
        "geometry.cross_links_s", "geometry.cross_links_calls",
        "failures.scenario_gen_s", "failures.scenarios",
        "routing.spt_s", "routing.spt_runs", "routing.spt_numpy_runs",
        "routing.incremental_s", "routing.incremental_updates",
        "routing.penalized_s", "routing.penalized_runs",
        "routing.cache_hits", "routing.cache_misses", "routing.cache_evictions",
        "routing.cache_hit_ratio", "routing.edge_loads_s", "routing.edge_loads_calls",
        "routing.table_warm_s",
        "simulator.walk_execute_s", "simulator.walk_batches", "simulator.walks_batched",
        "simulator.walks_fallback", "simulator.vector_share",
        "core.phase1_s", "core.phase1_walks", "core.phase2_tree_s",
    ]
    for scheme in SCHEMES:
        names += [
            f"schemes.{scheme}.{m}"
            for m in ("prepare_s", "instantiate_s", "recover_s", "attempts", "errors")
        ]
    names += [
        "eval.case_gen_s", "eval.runner_init_s", "eval.run_s", "eval.summarize_s", "eval.cases",
        "traffic.matrix_s", "traffic.flows_s", "traffic.provision_s", "traffic.engine_init_s",
        "traffic.classify_s", "traffic.scenario_self_s", "traffic.window_p50_ms",
        "traffic.window_p95_ms", "traffic.pairs_disrupted", "traffic.cases",
        "traffic.pairs_per_case",
        "te.penalty_s", "te.shed_demand",
        "bench.import_s", "bench.cpu_s", "bench.wall_ratio", "bench.spread_share",
        "bench.trace_overhead_share", "bench.unaccounted_share", "bench.wrappers_missing",
    ]
    return names


#: Per-layer metrics: name -> (unit, better), in report order.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    name: (_unit(name), "higher" if name in _HIGHER else "lower") for name in _per_layer_names()
}

#: The percentile a sample supports needs ten samples beyond it
#: (choosing-metrics, section 1): p95 from 200 samples on.
P95_MIN_SAMPLES = 200


def read_process_counters() -> Dict[str, Optional[int]]:
    out: Dict[str, Optional[int]] = {}
    for metric, (module, function) in PROCESS_COUNTERS.items():
        counter = resolve(module, function)
        out[metric] = counter() if counter is not None else None
    return out


def reduce_trace(
    tracer: Tracer,
    time_scale: float,
    counts: Dict[str, float],
    counters_before: Dict[str, Optional[int]],
    counters_after: Dict[str, Optional[int]],
) -> Dict[str, Optional[float]]:
    """The per-layer metrics one traced repetition can give on its own.

    Span times are wall time; ``time_scale`` (the repetition's reported
    over wall stage time) puts them on the end-to-end metrics' clock.
    ``None`` marks a metric whose wrapper target or counter no longer
    resolves.  Metrics of layers the workload does not use read 0.
    """
    self_times = tracer.self_times()
    unresolved = {span for _target, span in tracer.missing}
    # A {scheme} wrapper that is missing takes every scheme's metric with it.
    unresolved |= {
        span.replace("{scheme}", scheme)
        for span in list(unresolved)
        if "{scheme}" in span
        for scheme in SCHEMES
    }
    layers: Dict[str, Optional[float]] = {name: 0 for name in PER_LAYER}
    for metric, span in _TIMED.items():
        layers[metric] = (
            None if span in unresolved else time_scale * self_times.get(span, (0.0, 0))[0]
        )
    for metric, span in _CALLS.items():
        layers[metric] = None if span in unresolved else self_times.get(span, (0.0, 0))[1]
    missing_counters = 0
    for metric in PROCESS_COUNTERS:
        before, after = counters_before[metric], counters_after[metric]
        if before is None or after is None:
            layers[metric] = None
            missing_counters += 1
        else:
            layers[metric] = after - before
    for metric, value in counts.items():
        if metric in PER_LAYER:
            layers[metric] = value

    walks = tracer.counts.get("simulator.walks")
    batched = layers["simulator.walks_batched"]
    if walks is None or batched is None:
        layers["simulator.walks_fallback"] = layers["simulator.vector_share"] = None
    else:
        layers["simulator.walks_fallback"] = walks - batched
        layers["simulator.vector_share"] = batched / walks if walks else 0.0
    probes = layers["routing.cache_hits"] + layers["routing.cache_misses"]
    layers["routing.cache_hit_ratio"] = layers["routing.cache_hits"] / probes if probes else 0.0
    cases = layers["traffic.cases"]
    layers["traffic.pairs_per_case"] = layers["traffic.pairs_disrupted"] / cases if cases else 0.0
    layers["bench.unaccounted_share"] = self_times[ROOT_SPAN][0] / tracer.durations(ROOT_SPAN)[0]
    layers["bench.wrappers_missing"] = len(tracer.missing) + missing_counters
    return layers


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """One metric over repetitions: median, quartiles, count and the samples."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values
    }


def spread_share(summary: Dict[str, object]) -> float:
    """(q3 - q1) / median — the run-to-run spread of one metric."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def window_percentiles(samples_ms: Sequence[float]) -> Dict[str, Optional[float]]:
    """``traffic.window_p50_ms`` / ``p95_ms`` from pooled ``run_scenario`` samples."""
    if not samples_ms:
        return {"traffic.window_p50_ms": 0.0, "traffic.window_p95_ms": 0.0}
    ordered = sorted(samples_ms)
    p95 = None
    if len(ordered) >= P95_MIN_SAMPLES:
        p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return {"traffic.window_p50_ms": statistics.median(ordered), "traffic.window_p95_ms": p95}
