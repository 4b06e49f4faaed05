"""Congestion-aware recovery — the `repro.te` acceptance benchmark.

Sweeps four recovery variants over the pinned AS7018 traffic workload
(the exact configuration of ``bench_traffic_weighted.py``), crossed with
a packet-loss chaos ladder:

* **rtr** — the paper's protocol, congestion-blind (the 3.11x headline);
* **rtr+penalty** — congestion-aware phase 2 (`RTRConfig(congestion_aware)`,
  load-penalized selection + per-case feedback) with utilization-cap 1.5
  admission control;
* **r3** — precomputed protection routing (`repro.te.r3`) under the same
  live-load loop and cap;
* **ospf** — the reconvergence baseline, congestion-blind.

Asserted on every full run (the ISSUE acceptance bars):

* congestion-blind RTR drives max post-recovery utilization past 3x on
  the pinned sweep (the problem is real);
* rtr+penalty holds max utilization <= 1.5x on the same sweep;
* rtr+penalty loses at most 2 points of demand-recovery rate vs RTR
  (it currently *gains* — the SS III-D re-invocations recover more than
  admission control sheds).

Rows are keyed ``variant@topology+lossRATE``.  Without ``--update`` (the
gate mode, what CI runs) they go to the ``REPRO_STORE`` run store only —
``repro query regress`` compares their ``wall_s`` against the checked-in
``benchmarks/BENCH_congestion.json`` — and every *simulated* column of
every produced row (:data:`SIMULATED_COLUMNS`: what the sweep computed,
not how long it took) must equal the committed row, or the script exits
1 naming row and column: "the simulation did not change" is a gate, not
an eyeballed diff.  With ``--update`` the rows are merged into the file
(``perf_smoke.py`` / ``bench_traffic_weighted.py`` convention).

``REPRO_CONGESTION_SMOKE=1`` (the CI mode) keeps the full AS7018 cross
and its assertions but skips the heavier ``scale:10000`` sweep.

Usage::

    REPRO_CONGESTION_SMOKE=1 PYTHONPATH=src python benchmarks/bench_congestion.py
    PYTHONPATH=src python benchmarks/bench_congestion.py --update
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).parent))

from _bench_utils import emit, load_bench_json, record_bench

from repro.chaos import FaultPlan
from repro.core import RTRConfig
from repro.eval.experiments import _build_topology, traffic_scenario_list
from repro.routing import dijkstra_run_count
from repro.traffic import (
    DEFAULT_TOTAL_DEMAND,
    TrafficEngine,
    aggregate_flows,
    generate_matrix,
    summarize_traffic,
)

BENCH_CONGESTION_JSON = Path(__file__).parent / "BENCH_congestion.json"

SMOKE = os.environ.get("REPRO_CONGESTION_SMOKE", "") not in ("", "0")

#: The pinned AS7018 workload — identical to bench_traffic_weighted.py.
AS7018 = dict(topology="AS7018", n_scenarios=10, seed=0, n_flows=1_000_000)

#: The internet-scale smoke sweep (full runs only; r3's offline planning
#: is one Dijkstra per link and is deliberately excluded at this size).
SCALE = dict(topology="scale:10000", n_scenarios=2, seed=0, n_flows=200_000)

#: Packet-loss chaos ladder crossed with every variant on AS7018.
LOSS_RATES = (0.0, 0.05)
PLAN_SEED = 42

#: The admission-control bound asserted by the acceptance bar.
UTILIZATION_CAP = 1.5

#: Allowed demand-recovery cost of congestion awareness (Table III points).
MAX_RECOVERY_COST_PCT = 2.0

#: Row columns the sweep *computes*: identical on every machine and every
#: run of one commit, so any difference from the committed row is a
#: behaviour change (``wall_s`` / ``git_sha`` / ``python`` are not).
SIMULATED_COLUMNS = (
    "demand_recovery_rate_pct",
    "max_utilization",
    "utilization_p99",
    "congestion_free_pct",
    "admission_dropped_demand",
    "sp_computations",
    "cases",
)

#: variant -> (approach name, congestion-aware?).  The cap applies only
#: to the congestion-aware rows; the blind rows are the baselines whose
#: overload the te layer exists to fix.
VARIANTS = (
    ("rtr", "RTR", False),
    ("rtr+penalty", "RTR", True),
    ("r3", "r3", True),
    ("ospf", "OSPF", False),
)


def run_variant(
    topo,
    flow_set,
    scenarios,
    approach: str,
    congestion_aware: bool,
    loss_rate: float = 0.0,
) -> tuple:
    """One (variant, chaos rung) sweep -> (summary row dict, wall, sp)."""
    plan = (
        FaultPlan(seed=PLAN_SEED, packet_loss_rate=loss_rate)
        if loss_rate > 0.0
        else None
    )
    sp0 = dijkstra_run_count()
    t0 = time.perf_counter()
    engine = TrafficEngine(
        topo,
        flow_set,
        approaches=(approach,),
        rtr_config=RTRConfig(),
        fault_plan=plan,
        congestion_aware=congestion_aware,
        utilization_cap=UTILIZATION_CAP if congestion_aware else None,
    )
    records = engine.run_sweep(scenarios)
    wall = time.perf_counter() - t0
    sp = dijkstra_run_count() - sp0
    return summarize_traffic(records[approach]).as_dict(), wall, sp


def drifted_columns(name: str, entry: dict, committed: dict) -> list:
    """One line per simulated column of ``entry`` that left its committed row."""
    base = committed.get(name)
    if base is None:
        return [f"{name}: no committed row (record it with --update)"]
    return [
        f"{name}: {column} is {entry.get(column)!r}, committed {base.get(column)!r}"
        for column in SIMULATED_COLUMNS
        if entry.get(column) != base.get(column)
    ]


def sweep_topology(
    pinned: dict, loss_rates, lines: list, drift: list, update: bool, variants=VARIANTS
) -> dict:
    """All variants x chaos rungs on one topology; returns row dict.

    Every recorded row is compared with the trajectory file as it stood
    before this sweep; differing simulated columns are appended to
    ``drift``.  The file itself is only written when ``update`` is set.
    """
    committed = load_bench_json(BENCH_CONGESTION_JSON)
    name = pinned["topology"]
    topo = _build_topology(name, pinned["seed"])
    matrix = generate_matrix(
        topo, "gravity", total_demand=DEFAULT_TOTAL_DEMAND, seed=pinned["seed"]
    )
    flow_set = aggregate_flows(matrix, pinned["n_flows"])
    scenarios = traffic_scenario_list(topo, pinned["seed"], pinned["n_scenarios"])
    rows: dict = {}
    for loss_rate in loss_rates:
        for variant, approach, congestion_aware in variants:
            row, wall, sp = run_variant(
                topo, flow_set, scenarios, approach, congestion_aware, loss_rate
            )
            rows[(variant, loss_rate)] = row
            bench_name = f"congestion_{variant}@{name}+loss{loss_rate:g}"
            entry = record_bench(
                bench_name,
                wall_s=wall,
                cases=pinned["n_scenarios"],
                sp_computations=sp,
                path=BENCH_CONGESTION_JSON,
                extra={
                    "topology": name,
                    "variant": variant,
                    "loss_rate": loss_rate,
                    "flows": pinned["n_flows"],
                    "utilization_cap": (
                        UTILIZATION_CAP if congestion_aware else None
                    ),
                    "demand_recovery_rate_pct": row["demand_recovery_rate_pct"],
                    "max_utilization": row["max_utilization"],
                    "utilization_p99": row["utilization_p99"],
                    "congestion_free_pct": row["congestion_free_pct"],
                    "admission_dropped_demand": row["admission_dropped_demand"],
                },
                write_file=update,
            )
            drift.extend(drifted_columns(bench_name, entry, committed))
            lines.append(
                f"{name:12s} loss={loss_rate:<5g} {variant:12s} "
                f"recovery {row['demand_recovery_rate_pct']:5.1f}%  "
                f"maxutil {row['max_utilization']:5.2f}x  "
                f"p99 {row['utilization_p99']:5.2f}  "
                f"cf {row['congestion_free_pct']:5.1f}%  "
                f"shed {row['admission_dropped_demand']:6.1f}  "
                f"wall {wall:5.1f}s"
            )
    return rows


def main(argv: list) -> int:
    failed = False
    lines: list = []
    update = "--update" in argv
    drift: list = []

    rows = sweep_topology(AS7018, LOSS_RATES, lines, drift, update)
    rtr = rows[("rtr", 0.0)]
    penalty = rows[("rtr+penalty", 0.0)]

    # Bar 1: the congestion problem is real on the pinned sweep.
    if rtr["max_utilization"] < 3.0:
        print(
            f"congestion-bench: FAIL — congestion-blind RTR max utilization "
            f"{rtr['max_utilization']}x is below the expected >=3x headline; "
            "the pinned workload changed"
        )
        failed = True
    # Bar 2: the te layer caps post-recovery utilization.
    if penalty["max_utilization"] > UTILIZATION_CAP + 1e-9:
        print(
            f"congestion-bench: FAIL — rtr+penalty max utilization "
            f"{penalty['max_utilization']}x exceeds the {UTILIZATION_CAP}x cap"
        )
        failed = True
    # Bar 3: congestion awareness costs <= 2 recovery points.
    floor = rtr["demand_recovery_rate_pct"] - MAX_RECOVERY_COST_PCT
    if penalty["demand_recovery_rate_pct"] < floor:
        print(
            f"congestion-bench: FAIL — rtr+penalty recovers "
            f"{penalty['demand_recovery_rate_pct']}% of demand, below the "
            f"{floor:.1f}% floor (rtr {rtr['demand_recovery_rate_pct']}% - "
            f"{MAX_RECOVERY_COST_PCT} points)"
        )
        failed = True

    if SMOKE:
        lines.append(
            f"{SCALE['topology']:12s} skipped (smoke mode; full runs "
            "record the scale rows)"
        )
    else:
        # r3 and OSPF are deliberately excluded at 10k nodes: r3's
        # offline planning is one Dijkstra per link, and the blind OSPF
        # row adds nothing to the scale story.  Logged, not silent.
        scale_variants = tuple(v for v in VARIANTS if v[0] in ("rtr", "rtr+penalty"))
        lines.append(
            f"{SCALE['topology']:12s} variants limited to "
            f"{[v[0] for v in scale_variants]} (r3 offline planning is "
            "O(links) Dijkstras at this size)"
        )
        sweep_topology(SCALE, (0.0,), lines, drift, update, variants=scale_variants)

    emit("bench_congestion", "\n".join(lines))
    if drift and not update:
        # Gate mode: the sweep is deterministic, so a simulated column
        # that moved is a behaviour change someone has to own.
        for line in drift:
            print(f"congestion-bench: FAIL — simulated column moved — {line}")
        failed = True
    if failed:
        return 1
    where = (
        f"{BENCH_CONGESTION_JSON.name} rewritten"
        if update
        else f"simulated columns equal {BENCH_CONGESTION_JSON.name}; rows in the run store"
    )
    print(f"congestion-bench: OK ({where})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
