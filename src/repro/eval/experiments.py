"""Experiment drivers — one function per table/figure of §IV.

Every driver returns plain data (dicts / lists of rows or CDF points) so
the same code feeds the benchmark harness, the examples, and
EXPERIMENTS.md.  Scale is a parameter everywhere: the paper uses 10,000
recoverable + 10,000 irrecoverable cases per topology and 1,000 failure
areas per radius; the defaults here are laptop-sized, and
``examples/full_evaluation.py --paper-scale`` runs the full counts.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import islice
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Tuple,
)

from .. import obs
from ..failures import FailureScenario, circle_scenarios, fixed_radius_scenarios
from ..routing import RoutingTable, SPTCache
from ..topology import Topology, isp_catalog, topology_from_spec
from .cases import (
    CaseSet,
    count_failed_routing_paths,
    generate_cases,
)
from .cdf import cdf_points, summarize
from .metrics import (
    CaseRecord,
    phase1_duration_values,
    savings_ratio,
    sp_computation_values,
    stretch_values,
    summarize_irrecoverable,
    summarize_recoverable,
    wasted_transmission_values,
)
from .runner import ALL_APPROACHES, EvaluationRunner

if TYPE_CHECKING:  # pragma: no cover - repro.traffic imports this package
    from ..traffic import TrafficEngine

DEFAULT_TOPOLOGIES: Tuple[str, ...] = tuple(isp_catalog.names())


@lru_cache(maxsize=None)
def _build_topology(name: str, seed: int) -> Topology:
    """Resolve any topology spec (catalog AS, ``grid:``, ``scale:``, ``file:``).

    Built topologies are immutable during evaluation (failures are modeled
    as exclusion sets, never as mutations), so drivers — and shard workers
    — in one process share a single instance per (name, seed): the CSR
    view and precomputed cross-link sets are built once, not once per
    driver call.
    """
    return topology_from_spec(name, seed=seed)


def generate_case_set(
    name: str, n_recoverable: int, n_irrecoverable: int, seed: int
) -> Tuple[Topology, CaseSet, SPTCache]:
    """The deterministic case draw of one ``(topology, counts, seed)``.

    Shared by the serial drivers and every shard worker.  The returned
    SPT pool served case generation (oracle classification) and should
    serve the protocol runs too; all of them route on the same scenario
    exclusions.
    """
    topo = _build_topology(name, seed)
    rng = random.Random(seed * 7_919 + 13)
    cache = SPTCache()
    case_set = generate_cases(topo, rng, n_recoverable, n_irrecoverable, cache=cache)
    return topo, case_set, cache


def _cases_and_records(
    name: str,
    n_recoverable: int,
    n_irrecoverable: int,
    seed: int,
    approaches: Sequence[str],
) -> Tuple[CaseSet, Dict[str, List[CaseRecord]]]:
    with obs.span("eval.sweep", topology=name):
        topo, case_set, cache = generate_case_set(
            name, n_recoverable, n_irrecoverable, seed
        )
        runner = EvaluationRunner(
            topo, routing=case_set.routing, approaches=approaches, sp_cache=cache
        )
        records = runner.run(case_set)
        obs.gauge(f"spt_cache.hit_rate.{name}", cache.hit_rate())
    return case_set, records


def _split_records(
    case_set: CaseSet, records: Dict[str, List[CaseRecord]]
) -> Tuple[Dict[str, List[CaseRecord]], Dict[str, List[CaseRecord]]]:
    recoverable: Dict[str, List[CaseRecord]] = {}
    irrecoverable: Dict[str, List[CaseRecord]] = {}
    for approach, recs in records.items():
        recoverable[approach] = [r for r in recs if r.case.recoverable]
        irrecoverable[approach] = [r for r in recs if not r.case.recoverable]
    return recoverable, irrecoverable


# ----------------------------------------------------------------------
# Records -> table reductions, shared by the serial and sharded drivers
# ----------------------------------------------------------------------

#: ``(topology, {approach -> records})`` pairs in table row order.  The
#: serial drivers pass a generator, so each topology is swept and
#: summarized before the next one is built.
RecordsByTopology = Iterable[Tuple[str, Mapping[str, Sequence]]]


def _rows_and_overall(
    per_topology: RecordsByTopology,
    approaches: Sequence[str],
    summarize: Callable,
    keep: Optional[Callable[[CaseRecord], bool]] = None,
) -> Tuple[Dict[str, Dict], Dict]:
    """Per-topology rows plus an ``Overall`` row, and the ``Overall``
    summary objects.  ``Overall`` summarizes the records of every
    topology pooled together; it is not an average of the rows."""
    rows: Dict[str, Dict] = {}
    pooled: Dict[str, list] = {a: [] for a in approaches}
    for name, records in per_topology:
        row = {}
        for a in approaches:
            kept = records[a] if keep is None else [r for r in records[a] if keep(r)]
            row[a] = summarize(kept).as_dict()
            pooled[a].extend(kept)
        rows[name] = row
    overall = {a: summarize(pooled[a]) for a in approaches}
    rows["Overall"] = {a: overall[a].as_dict() for a in approaches}
    return rows, overall


def table3_from_records(
    per_topology: RecordsByTopology, approaches: Sequence[str]
) -> Dict[str, Dict]:
    """Table III from raw records: recoverable cases per topology + ``Overall``."""
    rows, _ = _rows_and_overall(
        per_topology, approaches, summarize_recoverable, lambda r: r.case.recoverable
    )
    return rows


def table4_from_records(
    per_topology: RecordsByTopology, approaches: Sequence[str]
) -> Dict[str, Dict]:
    """Table IV from raw records: irrecoverable cases per topology +
    ``Overall``, and the headline ``Savings`` of RTR over FCP when both ran."""
    rows, overall = _rows_and_overall(
        per_topology,
        approaches,
        summarize_irrecoverable,
        lambda r: not r.case.recoverable,
    )
    if "RTR" in overall and "FCP" in overall:
        rows["Savings"] = {
            f"{what}_saved_pct": round(
                100.0
                * savings_ratio(
                    getattr(overall["FCP"], f"avg_wasted_{what}"),
                    getattr(overall["RTR"], f"avg_wasted_{what}"),
                ),
                1,
            )
            for what in ("computation", "transmission")
        }
    return rows


def traffic_table_from_records(
    per_topology: RecordsByTopology, approaches: Sequence[str]
) -> Dict[str, Dict]:
    """Traffic-weighted table from per-scenario records, per topology + ``Overall``."""
    from ..traffic import summarize_traffic

    rows, _ = _rows_and_overall(per_topology, approaches, summarize_traffic)
    return rows


# ----------------------------------------------------------------------
# Table II — topology summary
# ----------------------------------------------------------------------


def table2_topologies(seed: int = 0, include_extended: bool = False) -> List[Dict]:
    """Table II: per-AS node and link counts, verified against a build."""
    rows: List[Dict] = []
    for row in isp_catalog.summary_rows(include_extended):
        topo = _build_topology(str(row["topology"]), seed)
        rows.append(
            {
                **row,
                "built_nodes": topo.node_count,
                "built_links": topo.link_count,
                "connected": topo.is_connected(),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 7 — CDF of the duration of the first phase
# ----------------------------------------------------------------------


def fig7_phase1_duration(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_recoverable: int = 300,
    n_irrecoverable: int = 300,
    seed: int = 0,
) -> Dict[str, Dict]:
    """Fig. 7: per-topology CDF of RTR's phase-1 duration in milliseconds.

    RTR has the same first phase in recoverable and irrecoverable cases, so
    both populations contribute (§IV-B).
    """
    out: Dict[str, Dict] = {}
    for name in topologies:
        _cs, records = _cases_and_records(
            name, n_recoverable, n_irrecoverable, seed, approaches=("RTR",)
        )
        durations_ms = [1000.0 * d for d in phase1_duration_values(records["RTR"])]
        out[name] = {
            "cdf": cdf_points(durations_ms),
            "summary": summarize(durations_ms),
        }
    return out


# ----------------------------------------------------------------------
# Table III + Figs. 8-9 — recoverable test cases
# ----------------------------------------------------------------------


def table3_recoverable(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_cases: int = 300,
    seed: int = 0,
    approaches: Sequence[str] = ALL_APPROACHES,
) -> Dict[str, Dict]:
    """Table III: recovery rate / optimal rate / max stretch / max SP calcs.

    Returns ``topology -> {approach -> summary row}`` plus an ``Overall``
    entry aggregated across every topology, as the paper's last row.
    """
    return table3_from_records(
        (
            (name, _cases_and_records(name, n_cases, 0, seed, approaches)[1])
            for name in topologies
        ),
        approaches,
    )


def fig8_stretch(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_cases: int = 300,
    seed: int = 0,
    approaches: Sequence[str] = ("RTR", "FCP"),
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Fig. 8: CDF of the stretch of successfully recovered paths."""
    out: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for name in topologies:
        case_set, records = _cases_and_records(name, n_cases, 0, seed, approaches)
        rec, _ = _split_records(case_set, records)
        out[name] = {a: cdf_points(stretch_values(rec[a])) for a in approaches}
    return out


def fig9_sp_computations(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_cases: int = 300,
    seed: int = 0,
    approaches: Sequence[str] = ("RTR", "FCP"),
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Fig. 9: CDF of shortest-path calculations on recoverable cases."""
    out: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for name in topologies:
        case_set, records = _cases_and_records(name, n_cases, 0, seed, approaches)
        rec, _ = _split_records(case_set, records)
        out[name] = {
            a: cdf_points([float(v) for v in sp_computation_values(rec[a])])
            for a in approaches
        }
    return out


# ----------------------------------------------------------------------
# Fig. 10 — transmission overhead over time
# ----------------------------------------------------------------------


def _overhead_at(record: CaseRecord, timeline: list, t: float) -> float:
    """Recovery header bytes on the wire at time ``t`` for one case.

    During the per-hop ``timeline`` (``header_timeline``) the in-flight
    hop's header size applies; afterwards the steady state is the phase-2
    source route (RTR) or the final header (FCP) for delivered cases, and 0
    for dropped ones (packets toward unreachable destinations die at the
    initiator).
    """
    for when, header_bytes in timeline:
        if t < when:
            return float(header_bytes)
    if not record.result.delivered:
        return 0.0
    if record.result.approach == "RTR":
        path = record.result.path
        assert path is not None
        from ..simulator import BYTES_PER_ID, FIXED_RTR_HEADER_BYTES

        return float(FIXED_RTR_HEADER_BYTES + BYTES_PER_ID * len(path.nodes))
    if timeline:
        return float(timeline[-1][1])
    return 0.0


def fig10_transmission_timeline(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_cases: int = 200,
    seed: int = 0,
    horizon: float = 1.0,
    step: float = 0.02,
    approaches: Sequence[str] = ("RTR", "FCP"),
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Fig. 10: average header overhead (bytes) vs time, first second.

    RTR starts high while first-phase packets carry growing failed/cross
    link lists, then converges to the (smaller) source-route size; FCP
    converges to its final failed-links + source-route header.
    """
    times = [round(i * step, 9) for i in range(int(horizon / step) + 1)]
    out: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for name in topologies:
        case_set, records = _cases_and_records(name, n_cases, 0, seed, approaches)
        rec, _ = _split_records(case_set, records)
        series: Dict[str, List[Tuple[float, float]]] = {}
        for a in approaches:
            recs = rec[a]
            timelines = [r.result.accounting.header_timeline for r in recs]
            pts = []
            for t in times:
                total = sum(map(_overhead_at, recs, timelines, [t] * len(recs)))
                pts.append((t, total / len(recs) if recs else 0.0))
            series[a] = pts
        out[name] = series
    return out


# ----------------------------------------------------------------------
# Fig. 11 — share of irrecoverable failed routing paths vs radius
# ----------------------------------------------------------------------


def fig11_irrecoverable_fraction(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    radii: Optional[Iterable[float]] = None,
    n_areas_per_radius: int = 50,
    seed: int = 0,
) -> Dict[str, List[Tuple[float, float]]]:
    """Fig. 11: percentage of failed routing paths that are irrecoverable.

    The paper sweeps the radius from 20 to 300 in increments of 20 with
    1,000 areas per radius.  Counts are over *failed routing paths* — all
    source-destination pairs with a live source whose default path
    contains a failed element — classified by whether the destination is
    still reachable from the source in ``G - E2``.
    """
    radius_list = list(radii) if radii is not None else [20.0 * i for i in range(1, 16)]
    out: Dict[str, List[Tuple[float, float]]] = {}
    for name in topologies:
        topo = _build_topology(name, seed)
        routing = RoutingTable(topo)
        routing.precompute_all()
        series: List[Tuple[float, float]] = []
        for radius in radius_list:
            rng = random.Random((seed + 1) * 104_729 + int(radius * 1000))
            gen = fixed_radius_scenarios(topo, rng, radius)
            recoverable = irrecoverable = 0
            for _ in range(n_areas_per_radius):
                scenario = next(gen)
                if not scenario.failed_links:
                    continue
                rec, irr = count_failed_routing_paths(topo, routing, scenario)
                recoverable += rec
                irrecoverable += irr
            total = recoverable + irrecoverable
            pct = 100.0 * irrecoverable / total if total else 0.0
            series.append((radius, pct))
        out[name] = series
    return out


# ----------------------------------------------------------------------
# Figs. 12-13 + Table IV — irrecoverable test cases
# ----------------------------------------------------------------------


def fig12_wasted_computation(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_cases: int = 300,
    seed: int = 0,
    approaches: Sequence[str] = ("RTR", "FCP"),
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Fig. 12: CDF of wasted shortest-path calculations."""
    out: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for name in topologies:
        case_set, records = _cases_and_records(name, 0, n_cases, seed, approaches)
        _, irr = _split_records(case_set, records)
        out[name] = {
            a: cdf_points([float(v) for v in sp_computation_values(irr[a])])
            for a in approaches
        }
    return out


def fig13_wasted_transmission(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_cases: int = 300,
    seed: int = 0,
    approaches: Sequence[str] = ("RTR", "FCP"),
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Fig. 13: CDF of wasted transmission (``s * h``, §IV-D)."""
    out: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for name in topologies:
        case_set, records = _cases_and_records(name, 0, n_cases, seed, approaches)
        _, irr = _split_records(case_set, records)
        out[name] = {
            a: cdf_points(wasted_transmission_values(irr[a])) for a in approaches
        }
    return out


# ----------------------------------------------------------------------
# Traffic-weighted Table III (repro.traffic — not in the paper)
# ----------------------------------------------------------------------

#: Flow population of the default traffic sweep.
DEFAULT_TRAFFIC_FLOWS = 1_000_000

#: Failure events per topology in the default traffic sweep.
DEFAULT_TRAFFIC_SCENARIOS = 10


def traffic_scenario_list(
    topo: Topology, seed: int, n_scenarios: int
) -> List[FailureScenario]:
    """The deterministic scenario sequence of one traffic sweep.

    Shared by the serial driver and every parallel shard worker — the
    scenario at index ``i`` is identical everywhere for a given
    ``(topology, seed)``.
    """
    rng = random.Random(seed * 9_176 + 29)
    return list(islice(circle_scenarios(topo, rng), n_scenarios))


class TrafficSweep(NamedTuple):
    """Everything one topology's traffic sweep is a function of.

    Picklable and hashable: the serial driver builds its engine from it,
    shard tasks carry it and pool workers memoize on it.  ``None`` means
    the :mod:`repro.traffic` / module default.
    """

    name: str
    n_scenarios: int
    seed: int
    model: str
    total_demand: Optional[float]
    n_flows: Optional[int]
    approaches: Tuple[str, ...]
    congestion_aware: bool
    headroom: Optional[float]
    utilization_cap: Optional[float]

    def build(self) -> Tuple["TrafficEngine", List[FailureScenario]]:
        """The provisioned engine and the scenario sequence of the sweep."""
        from ..traffic import (
            DEFAULT_HEADROOM,
            DEFAULT_TOTAL_DEMAND,
            TrafficEngine,
            aggregate_flows,
            generate_matrix,
        )

        topo = _build_topology(self.name, self.seed)
        matrix = generate_matrix(
            topo,
            self.model,
            total_demand=(
                DEFAULT_TOTAL_DEMAND if self.total_demand is None else self.total_demand
            ),
            seed=self.seed,
        )
        flow_set = aggregate_flows(
            matrix, DEFAULT_TRAFFIC_FLOWS if self.n_flows is None else self.n_flows
        )
        scenarios = traffic_scenario_list(topo, self.seed, self.n_scenarios)
        engine = TrafficEngine(
            topo,
            flow_set,
            approaches=self.approaches,
            congestion_aware=self.congestion_aware,
            headroom=DEFAULT_HEADROOM if self.headroom is None else self.headroom,
            utilization_cap=self.utilization_cap,
        )
        return engine, scenarios


def traffic_weighted_table3(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_scenarios: int = DEFAULT_TRAFFIC_SCENARIOS,
    seed: int = 0,
    model: str = "gravity",
    total_demand: Optional[float] = None,
    n_flows: int = DEFAULT_TRAFFIC_FLOWS,
    approaches: Sequence[str] = ("RTR", "FCP"),
    congestion_aware: bool = False,
    headroom: Optional[float] = None,
    utilization_cap: Optional[float] = None,
) -> Dict[str, Dict]:
    """Traffic-weighted Table III: recovery quality weighted by demand.

    For each topology a seeded demand matrix (``model``) is built, a
    synthetic population of ``n_flows`` flows is apportioned over its OD
    pairs, and ``n_scenarios`` failure areas are replayed through the
    flow-level batched simulator (:class:`repro.traffic.TrafficEngine`).
    Returns ``topology -> {approach -> weighted summary row}`` plus an
    ``Overall`` entry pooled across topologies, like
    :func:`table3_recoverable`.

    ``congestion_aware=True`` switches the sweep to the live-load loop of
    :mod:`repro.te` (penalized phase-2 selection plus optional
    ``utilization_cap`` admission control); ``headroom`` overrides the
    capacity provisioning factor.
    """
    approaches = tuple(approaches)

    def records_of(name: str) -> Dict[str, list]:
        with obs.span("traffic.sweep", topology=name):
            engine, scenarios = TrafficSweep(
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
            ).build()
            obs.inc("traffic.flows.total", engine.flow_set.n_flows)
            return engine.run_sweep(scenarios)

    return traffic_table_from_records(
        ((name, records_of(name)) for name in topologies), approaches
    )


def table4_wasted_summary(
    topologies: Sequence[str] = DEFAULT_TOPOLOGIES,
    n_cases: int = 300,
    seed: int = 0,
    approaches: Sequence[str] = ("RTR", "FCP"),
) -> Dict[str, Dict]:
    """Table IV: avg/max wasted computation and transmission, plus the
    headline savings of §I (83.1 % computation, 75.6 % transmission)."""
    return table4_from_records(
        (
            (name, _cases_and_records(name, 0, n_cases, seed, approaches)[1])
            for name in topologies
        ),
        approaches,
    )
