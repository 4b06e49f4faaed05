"""The four pinned workloads and their staged drivers.

Each driver re-implements ~20 lines of ``repro.eval.experiments``
(``_cases_and_records`` / ``traffic_weighted_table3``) through public API
only, so that scenario-independent work can be timed as ``setup`` and
scenario-dependent work as ``sweep``.  ``run.py --check`` proves the
drivers return the public functions' tables on a small configuration.

Inputs are made from the seed so that the *amount* of work is steady
across seeds (README, "Seed-steady inputs"): table sweeps are rounds of
small case draws up to a quota of recorded shortest-path computations,
and traffic sweeps replay a stratified sample of failure areas (one
circle per cell of a grid over the map, radii on a shuffled ladder) up
to a quota of recovery cases.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.eval import (
    EvaluationRunner,
    generate_cases,
    savings_ratio,
    summarize_irrecoverable,
    summarize_recoverable,
)
from repro.failures import FailureScenario
from repro.failures.scenarios import embedding_area
from repro.geometry import Circle, Point
from repro.routing import RoutingTable, SPTCache
from repro.topology import Topology, isp_catalog, topology_from_spec
from repro.traffic import (
    TrafficEngine,
    aggregate_flows,
    classify_pairs,
    generate_matrix,
    summarize_traffic,
)

from tracing import Tracer

TABLE3_APPROACHES = ("RTR", "FCP", "MRC")
TABLE4_APPROACHES = ("RTR", "FCP")

#: Tolerance of the rate/stretch/conservation invariants (float sums).
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``tables`` or ``traffic`` — which staged driver runs it.
    kind: str
    #: The part of ``run.py --check`` that guards this workload's driver.
    check: str
    params: Dict[str, object]
    #: Overrides that shrink the workload to about a second (``--smoke``).
    smoke: Dict[str, object]
    #: Spans that must see calls in the traced run: the layers the issue
    #: says work on this workload.  Zero calls means a bypassed wrapper.
    active: Tuple[str, ...]
    requires_numpy: bool = False

    def resolved(self, smoke: bool) -> Dict[str, object]:
        return {**self.params, **self.smoke} if smoke else dict(self.params)


def _scheme_spans(*schemes: str) -> Tuple[str, ...]:
    return tuple(
        f"schemes.{s}.{stage}" for s in schemes for stage in ("prepare", "instantiate", "recover")
    )


_COMMON_ACTIVE = ("topology.build", "topology.csr", "routing.spt", "eval.summarize")
_TRAFFIC_ACTIVE = _COMMON_ACTIVE + (
    "failures.scenario_gen",
    "geometry.cross_links",
    "routing.edge_loads",
    "routing.table_warm",
    "traffic.matrix",
    "traffic.flows",
    "traffic.provision",
    "traffic.classify",
    "traffic.scenario",
    "traffic.engine_init",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_tables",
            why=(
                "Table III (RTR/FCP/MRC) then Table IV (RTR/FCP) on the 8 catalog ASes: "
                "python SPT kernel, SPTCache and FCP wandering work; traffic and numpy kernels idle"
            ),
            kind="tables",
            check="tables",
            params=dict(
                topologies=tuple(isp_catalog.names()), draws=40, recoverable=10, irrecoverable=10,
                sp_quota=26_000,
            ),
            smoke=dict(topologies=("AS209", "AS1239"), draws=2, sp_quota=None),
            active=_COMMON_ACTIVE
            + ("eval.case_gen", "eval.runner_init", "eval.run", "routing.incremental", "core.phase1",
               "core.phase2_tree", "simulator.walk_execute", "geometry.cross_links")
            + _scheme_spans(*TABLE3_APPROACHES),
        ),
        Workload(
            name="traffic_isp",
            why=(
                "AS7018, 1M flows, ~6000 recovery cases, 5 schemes, blind: demand weighting "
                "(edge_loads_to, traffic.engine) dominates, vector walk path carries real batches; "
                "numpy SPT kernels idle"
            ),
            kind="traffic",
            check="traffic",
            params=dict(
                spec="AS7018", n_flows=1_000_000, grid=6, radius_range=(100.0, 300.0),
                case_quota=6000,
                engines=(("blind", dict(approaches=("RTR", "FCP", "MRC", "OSPF", "Oracle"))),),
            ),
            smoke=dict(grid=2, n_flows=100_000, case_quota=None),
            active=_TRAFFIC_ACTIVE
            + ("eval.run", "simulator.walk_execute", "core.phase1", "core.phase2_tree", "routing.incremental")
            + _scheme_spans("RTR", "FCP", "MRC", "OSPF", "Oracle"),
        ),
        Workload(
            name="traffic_scale",
            why=(
                "scale:20000, 1M flows, ~400 cases, RTR/FCP: cross-link precompute, numpy SPT + "
                "incremental kernels and the phase-1 callback walk split the run; largest setup_s "
                "and peak_rss_mb"
            ),
            kind="traffic",
            check="traffic",
            params=dict(
                spec="scale:20000", n_flows=1_000_000, grid=4, radius_range=(50.0, 150.0),
                case_quota=400, engines=(("blind", dict(approaches=("RTR", "FCP"))),),
            ),
            smoke=dict(spec="scale:2000", grid=2, n_flows=100_000, case_quota=None),
            active=_TRAFFIC_ACTIVE
            + ("eval.run", "simulator.walk_execute", "core.phase1", "core.phase2_tree", "routing.incremental")
            + _scheme_spans("RTR", "FCP"),
            requires_numpy=True,
        ),
        Workload(
            name="congestion_isp",
            why=(
                "AS7018, 1M flows, ~7000 cases, congestion-aware, cap 1.5, as RTR+penalty then "
                "as r3: groups route one at a time under live load, so walk batching and the SPT "
                "cache are bypassed"
            ),
            kind="traffic",
            check="congestion",
            params=dict(
                spec="AS7018", n_flows=1_000_000, grid=6, radius_range=(100.0, 300.0),
                case_quota=7000,
                engines=(
                    ("rtr+penalty", dict(approaches=("RTR",), congestion_aware=True, utilization_cap=1.5)),
                    ("r3", dict(approaches=("r3",), congestion_aware=True, utilization_cap=1.5)),
                ),
            ),
            smoke=dict(grid=2, n_flows=100_000, case_quota=None),
            active=_TRAFFIC_ACTIVE
            + ("routing.penalized", "te.penalty", "core.phase1", "core.phase2_tree")
            + _scheme_spans("RTR", "r3"),
        ),
    )
}


# ----------------------------------------------------------------------
# Stage clock
# ----------------------------------------------------------------------

#: Side of the grid graph the calibration kernel routes on.
_KERNEL_GRID = 24
_KERNEL_ARCS = {
    (x, y): [
        ((x + dx, y + dy), 1.0 + ((7 * x + 13 * y + 3 * dx + dy) % 5) / 10.0)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
        if 0 <= x + dx < _KERNEL_GRID and 0 <= y + dy < _KERNEL_GRID
    ]
    for x in range(_KERNEL_GRID)
    for y in range(_KERNEL_GRID)
}

#: Seconds one run of the calibration kernel takes on the box the benchmark
#: was defined on, in that box's usual speed state.  Stage times are reported
#: at this speed; on that box in that state they equal wall time.
KERNEL_REFERENCE_S = 0.00045

#: Wall time of brackets after which the box's speed is read again.
CALIBRATE_EVERY_S = 0.05


def _kernel() -> None:
    """A heap Dijkstra over a small fixed grid: interpreter work of the kind
    the program does (heap, dict, tuples, floats), none of the program's code."""
    dist = {(0, 0): 0.0}
    heap = [(0.0, (0, 0))]
    done = set()
    while heap:
        d, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _KERNEL_ARCS[u]:
            nd = d + w
            if nd < dist.get(v, 1e18):
                dist[v] = nd
                heappush(heap, (nd, v))


def kernel_seconds() -> float:
    """The box's speed right now: the fastest of three kernel runs."""
    best = 1e18
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Recorder:
    """Times the harness's own calls into the program, at reference speed.

    Every bracket adds its time to the ``setup`` or the ``sweep`` stage and
    opens a span when the run is traced.  The box this runs on flips
    between speed states some 20 % apart for seconds to minutes (README,
    "Noise"), so a bracket's wall time is scaled by how fast the
    calibration kernel ran just before and after it, relative to
    :data:`KERNEL_REFERENCE_S`.  ``wall_s`` keeps the unscaled totals.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.stage_s = {"setup": 0.0, "sweep": 0.0}
        self.wall_s = {"setup": 0.0, "sweep": 0.0}
        #: One sample per ``TrafficEngine.run_scenario`` call, milliseconds.
        self.windows_ms: List[float] = []
        self._kernel_s = kernel_seconds()
        self._uncalibrated_s = 0.0

    @contextmanager
    def _bracket(self, stage: str, span: Optional[str]) -> Iterator[None]:
        tracer = self.tracer
        if tracer is not None and span is not None:
            tracer.push(span)
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            if tracer is not None and span is not None:
                tracer.pop()
            before = self._kernel_s
            self._uncalibrated_s += wall
            if self._uncalibrated_s >= CALIBRATE_EVERY_S:
                if tracer is not None:
                    tracer.push("bench.calibrate")
                self._kernel_s = kernel_seconds()
                if tracer is not None:
                    tracer.pop()
                self._uncalibrated_s = 0.0
            self.wall_s[stage] += wall
            self.stage_s[stage] += wall * KERNEL_REFERENCE_S / (0.5 * (before + self._kernel_s))

    def setup(self, span: str):
        """Scenario-independent work."""
        return self._bracket("setup", span)

    def sweep(self, span: Optional[str]):
        """Scenario-dependent work.  ``span=None``: the callee carries its
        own timing wrapper when traced, so open no second span."""
        return self._bracket("sweep", span)

    @contextmanager
    def window(self) -> Iterator[None]:
        """One ``TrafficEngine.run_scenario`` call (a convergence window)."""
        before = self.stage_s["sweep"]
        with self._bracket("sweep", "traffic.scenario"):
            yield
        self.windows_ms.append(1000.0 * (self.stage_s["sweep"] - before))


@dataclass
class Outcome:
    """What one repetition of a workload produced, besides its timings."""

    #: JSON-ready summary tables — the input of ``result_digest``.
    tables: Dict[str, object]
    attempts: int = 0
    errors: int = 0
    violations: List[str] = field(default_factory=list)
    #: Simulated counts that repeat exactly (cases, pairs, cache stats ...).
    counts: Dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        text = json.dumps(self.tables, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def _cache_counts(caches: Sequence[SPTCache]) -> Dict[str, float]:
    totals = {"hits": 0, "misses": 0, "evictions": 0}
    for cache in caches:
        stats = cache.stats()
        for key in totals:
            totals[key] += stats[key]
    return {f"routing.cache_{key}": value for key, value in totals.items()}


# ----------------------------------------------------------------------
# Table III / IV
# ----------------------------------------------------------------------


def draw_seed(seed: int, draw: int) -> int:
    """RNG seed of one case draw; draw 0 is ``repro.eval.experiments``' own."""
    return seed * 7_919 + 13 + draw * 104_729


def run_tables(
    rec: Recorder,
    seed: int,
    topologies: Sequence[str],
    draws: int,
    recoverable: int,
    irrecoverable: int,
    sp_quota: Optional[int] = None,
    inject_violation: bool = False,
) -> Outcome:
    """Table III and Table IV on every topology, as rounds of small case draws.

    One round draws ``recoverable`` Table III cases and ``irrecoverable``
    Table IV cases on each topology and runs them.  Rounds go on until the
    recorded shortest-path computations (the section IV metric, a
    simulated count) reach ``sp_quota``, or for ``draws`` rounds.  With
    ``draws=1`` and no quota the tables equal ``table3_recoverable`` /
    ``table4_wasted_summary`` at ``n_cases`` = the draw size.
    """
    sites = []
    for name in topologies:
        with rec.setup("topology.build"):
            topo = topology_from_spec(name, seed=seed)
        with rec.setup("topology.csr"):
            topo.csr()
        with rec.setup("eval.runner_init"):
            cache = SPTCache()
            routing = RoutingTable(topo, cache=cache)
            runners = [
                EvaluationRunner(topo, routing=routing, approaches=approaches, sp_cache=cache)
                for approaches in (TABLE3_APPROACHES, TABLE4_APPROACHES)
            ]
        sites.append((name, topo, routing, cache, runners))

    out = Outcome(tables={})
    quotas = ((recoverable, 0), (0, irrecoverable))
    records = {
        (name, table): {a: [] for a in runner.approaches}
        for name, _topo, _routing, _cache, runners in sites
        for table, runner in enumerate(runners)
    }
    cases = sp_computations = 0
    for draw in range(draws):
        for name, topo, routing, cache, runners in sites:
            for table, runner in enumerate(runners):
                rng = random.Random(draw_seed(seed, draw))
                with rec.sweep("eval.case_gen"):
                    case_set = generate_cases(
                        topo, rng, *quotas[table], routing=routing, cache=cache
                    )
                with rec.sweep(None):  # EvaluationRunner.run is wrapped as eval.run
                    drawn = runner.run(case_set)
                cases += len(case_set.cases)
                out.attempts += len(case_set.cases) * len(runner.approaches)
                for approach, recs in drawn.items():
                    records[name, table][approach].extend(recs)
                    sp_computations += sum(r.result.sp_computations for r in recs)
        if sp_quota is not None and sp_computations >= sp_quota:
            break

    tables: List[Dict[str, Dict]] = [{}, {}]
    pooled = [{a: [] for a in TABLE3_APPROACHES}, {a: [] for a in TABLE4_APPROACHES}]
    summarizers = (summarize_recoverable, summarize_irrecoverable)
    with rec.sweep("eval.summarize"):
        for (name, table), by_approach in records.items():
            summaries = {a: summarizers[table](recs) for a, recs in by_approach.items()}
            tables[table][name] = {a: s.as_dict() for a, s in summaries.items()}
            for approach, recs in by_approach.items():
                pooled[table][approach].extend(recs)
            if table == 0:
                rtr = summaries["RTR"]
                if inject_violation:
                    rtr = dataclasses.replace(rtr, optimal_recovery_rate=rtr.recovery_rate / 2)
                out.violations.extend(
                    _theorem2(name, rtr.recovery_rate, rtr.optimal_recovery_rate, rtr.max_stretch)
                )
        overall = [
            {a: summarizers[table](recs) for a, recs in pooled[table].items()} for table in (0, 1)
        ]
        for table in (0, 1):
            tables[table]["Overall"] = {a: s.as_dict() for a, s in overall[table].items()}
        tables[1]["Savings"] = {
            f"{what}_saved_pct": round(
                100.0
                * savings_ratio(
                    getattr(overall[1]["FCP"], f"avg_wasted_{what}"),
                    getattr(overall[1]["RTR"], f"avg_wasted_{what}"),
                ),
                1,
            )
            for what in ("computation", "transmission")
        }
    for table in (0, 1):
        for approach, recs in pooled[table].items():
            errors = sum(1 for r in recs if r.result.error)
            out.errors += errors
            key = f"schemes.{approach}.errors"
            out.counts[key] = out.counts.get(key, 0) + errors
    out.tables = {"table3": tables[0], "table4": tables[1]}
    out.counts.update(
        {
            "topology.nodes": sum(topo.node_count for _n, topo, *_rest in sites),
            "topology.links": sum(topo.link_count for _n, topo, *_rest in sites),
            "eval.cases": cases,
            "eval.sp_computations": sp_computations,
            **_cache_counts([cache for *_rest, cache, _runners in sites]),
        }
    )
    return out


def _theorem2(where: str, recovery: float, optimal: float, max_stretch: float) -> List[str]:
    """Theorem 2: whatever RTR recovers, it recovers on a shortest path."""
    found = []
    if abs(recovery - optimal) > TOLERANCE:
        found.append(f"{where}: RTR recovery rate {recovery} != optimal rate {optimal}")
    if max_stretch > 1.0 + TOLERANCE:
        found.append(f"{where}: RTR max stretch {max_stretch} > 1")
    return found


# ----------------------------------------------------------------------
# Traffic-weighted sweeps
# ----------------------------------------------------------------------


def stratified_circles(
    topo: Topology, seed: int, grid: int, radius_range: Tuple[float, float]
) -> List[FailureScenario]:
    """One circular failure area per cell of a ``grid`` x ``grid`` partition of the map.

    Centres are uniform inside their cell and the radii are a shuffled,
    jittered ladder over ``radius_range``, so every seed covers the whole
    map at every radius band.  Areas that destroy nothing are kept: they
    are still a convergence window the engine has to classify and weight.
    """
    rng = random.Random(seed * 9_176 + 29)
    count = grid * grid
    low, high = radius_range
    radii = [low + (high - low) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(radii)
    cell = embedding_area(topo) / grid
    return [
        FailureScenario.from_region(
            topo,
            Circle(
                Point((i % grid + rng.random()) * cell, (i // grid + rng.random()) * cell),
                radii[i],
            ),
        )
        for i in range(count)
    ]


def fill_case_quota(
    candidates: Sequence[Tuple[FailureScenario, int]], quota: int
) -> List[Tuple[FailureScenario, int]]:
    """(failure area, recovery cases) pairs, in order, up to about ``quota`` cases.

    The traffic analogue of section IV-A's case quota: an area that would
    overshoot the quota (one that takes out a hub, say) or that disrupts
    nothing is passed over, and the draw stops within 5 % of the quota.
    """
    taken: List[Tuple[FailureScenario, int]] = []
    total = 0
    for scenario, cases in candidates:
        if cases == 0 or total + cases > quota:
            continue
        taken.append((scenario, cases))
        total += cases
        if total >= 0.95 * quota:
            break
    return taken


def run_traffic(
    rec: Recorder,
    seed: int,
    spec: str,
    n_flows: int,
    engines: Sequence[Tuple[str, Dict[str, object]]],
    grid: int = 0,
    radius_range: Tuple[float, float] = (100.0, 300.0),
    case_quota: Optional[int] = None,
    scenarios_of: Optional[Callable[[Topology], List[FailureScenario]]] = None,
    inject_violation: bool = False,
) -> Outcome:
    """One topology, one demand matrix, one scenario list, one sweep per engine.

    The failure areas are the stratified sample, cut to ``case_quota``
    recovery cases when one is given.  ``scenarios_of`` replaces the sample —
    the parity check passes ``traffic_scenario_list`` so that the tables
    equal ``traffic_weighted_table3``.
    """
    with rec.setup("topology.build"):
        topo = topology_from_spec(spec, seed=seed)
    with rec.setup("topology.csr"):
        topo.csr()
    with rec.setup("traffic.matrix"):
        matrix = generate_matrix(topo, "gravity", seed=seed)
    with rec.setup("traffic.flows"):
        flow_set = aggregate_flows(matrix, n_flows)
    # One routing table and SPT pool per topology, shared by scenario
    # selection and every engine (as in experiments._cases_and_records).
    cache = SPTCache()
    routing = RoutingTable(topo, cache=cache)
    built = []
    for label, options in engines:
        with rec.setup("traffic.engine_init"):
            built.append(
                (label, TrafficEngine(topo, flow_set, routing=routing, cache=cache, **options))
            )

    def cases_of(scenario: FailureScenario) -> int:
        """Recovery cases of one area: its distinct (initiator, destination) groups."""
        disrupted = classify_pairs(topo, routing, scenario, flow_set).disrupted
        return len({(pair.initiator, pair.destination) for pair in disrupted})

    with rec.sweep("failures.scenario_gen"):
        if scenarios_of is not None:
            candidates = scenarios_of(topo)
        else:
            candidates = stratified_circles(topo, seed, grid, radius_range)
        counted = [(scenario, cases_of(scenario)) for scenario in candidates]
        if case_quota is not None:
            counted = fill_case_quota(counted, case_quota)
    scenarios = [scenario for scenario, _cases in counted]
    cases = sum(cases for _scenario, cases in counted)

    out = Outcome(tables={})
    pairs = 0
    shed = 0.0
    for label, engine in built:
        records = {a: [] for a in engine.approaches}
        for index, scenario in enumerate(scenarios):
            with rec.window():
                per_approach = engine.run_scenario(scenario, index)
            for approach, record in per_approach.items():
                records[approach].append(record)
        with rec.sweep("eval.summarize"):
            summaries = {a: summarize_traffic(records[a]) for a in engine.approaches}
            out.tables[label] = {a: s.as_dict() for a, s in summaries.items()}
        pairs += sum(r.disrupted_pairs for r in records[engine.approaches[0]])
        for approach, recs in records.items():
            if inject_violation and recs:
                broken = dataclasses.replace(
                    recs[0], recoverable_demand=recs[0].recoverable_demand + 1.0
                )
                recs = [broken] + recs[1:]
            errors = sum(1 for r in recs if r.error_demand > 0.0)
            out.errors += errors
            out.counts[f"schemes.{approach}.errors"] = errors
            out.violations.extend(_conservation(label, recs))
            shed += summaries[approach].admission_dropped_demand
        if not engine.congestion_aware:
            out.violations.extend(_blind_invariants(label, summaries))

    out.attempts = cases * sum(len(engine.approaches) for _label, engine in built)
    out.counts.update(
        {
            "traffic.cases": cases * len(built),
            "eval.cases": cases * len(built),
            "topology.nodes": topo.node_count,
            "topology.links": topo.link_count,
            "failures.scenarios": len(scenarios),
            "traffic.pairs_disrupted": pairs,
            "te.shed_demand": shed,
            **_cache_counts([cache]),
        }
    )
    return out


def _conservation(label: str, records: Sequence) -> List[str]:
    found = []
    for r in records:
        where = f"{label}/{r.approach} scenario {r.scenario_index}"
        split = r.recoverable_demand + r.irrecoverable_demand
        if abs(split - r.disrupted_demand) > TOLERANCE * max(1.0, r.disrupted_demand):
            found.append(
                f"{where}: recoverable + irrecoverable demand {split} != disrupted {r.disrupted_demand}"
            )
        if r.delivered_recoverable_demand > r.recoverable_demand + TOLERANCE:
            found.append(f"{where}: delivered recoverable demand exceeds recoverable demand")
    return found


def _blind_invariants(label: str, summaries: Dict[str, object]) -> List[str]:
    found = []
    rtr = summaries.get("RTR")
    if rtr is not None:
        found.extend(
            _theorem2(label, rtr.demand_recovery_rate, rtr.demand_optimal_rate, rtr.max_stretch)
        )
    oracle = summaries.get("Oracle")
    if oracle is not None and oracle.recoverable_demand > 0.0:
        if oracle.demand_recovery_rate < 1.0 - TOLERANCE:
            found.append(f"{label}: Oracle recovered {oracle.demand_recovery_rate} of recoverable demand")
    return found


def run_workload(
    workload: Workload, rec: Recorder, seed: int, smoke: bool, inject_violation: bool = False
) -> Outcome:
    params = workload.resolved(smoke)
    driver = run_tables if workload.kind == "tables" else run_traffic
    return driver(rec, seed, inject_violation=inject_violation, **params)
