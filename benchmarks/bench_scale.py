"""Internet-scale curves — the numpy kernel and `scale:` acceptance bench.

Times three workloads on `scale:` topologies of growing size (1k / 10k /
50k nodes by default):

* **single-source Dijkstra** under both kernel backends (the pure-Python
  reference and the vectorized CSR kernel), parity-checked per root;
* **batched multi-source Dijkstra** (`batched_dijkstra_arrays`), the
  array-level path the traffic engine's `RoutingTable.warm` rides;
* **traffic-weighted Table III** (`scale:50000` only) — the end-to-end
  sweep: demand matrix, 1M flows, circular failures, RTR/FCP recovery.

Asserted on every run: numpy and Python single-source trees are
bit-identical at every size (a correctness bar, not a perf one).  The
former in-script speedup and wall-clock bars are retired — the perf gate
is ``repro query regress``, run by CI against the checked-in trajectory
after this bench records its measurements (to the ``REPRO_STORE`` run
store in gate mode; into ``BENCH_scale.json`` itself with ``--update``).
The measured batched-vs-python speedup is still printed and recorded on
every row.

Rows are merged into ``benchmarks/BENCH_scale.json`` keyed by
``workload@nodes``, each carrying the kernel backend, node/link counts,
and the ``config_hash`` of its parameters.

Usage::

    REPRO_STORE=scale.sqlite PYTHONPATH=src python benchmarks/bench_scale.py
    PYTHONPATH=src python -m repro query --store scale.sqlite regress
    PYTHONPATH=src python benchmarks/bench_scale.py --update  # rebaseline
    REPRO_SCALE_SIZES=1000,10000 PYTHONPATH=src python benchmarks/bench_scale.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_utils import emit, record_bench

from repro.obs import config_hash
from repro.routing import dijkstra_run_count, shortest_path_tree
from repro.routing.kernels import (
    batched_dijkstra_arrays,
    numpy_available,
    select_backend,
)
from repro.topology.scale import scale_topology

BENCH_SCALE_JSON = Path(__file__).parent / "BENCH_scale.json"

SIZES = tuple(
    int(s)
    for s in os.environ.get("REPRO_SCALE_SIZES", "1000,10000,50000").split(",")
    if s.strip()
)

#: Roots per size for the per-tree timings (spread over the node range).
N_ROOTS = 8

TRAFFIC_PINNED = dict(
    topologies=("scale:50000",),
    n_scenarios=2,
    seed=0,
    model="gravity",
    n_flows=1_000_000,
)


def fingerprint(tree) -> tuple:
    """Bit-exact tree identity: float distances by hex, parent order."""
    return (
        tuple((n, float(d).hex()) for n, d in sorted(tree.dist.items())),
        tuple(sorted(tree.parent.items())),
    )


def spread_roots(topo, count: int) -> list:
    nodes = sorted(topo.nodes())
    step = max(1, len(nodes) // count)
    return nodes[::step][:count]


def time_single_source(topo, roots, backend: str) -> tuple:
    """(wall seconds, fingerprints) for one backend over ``roots``."""
    os.environ["REPRO_KERNEL"] = backend
    try:
        t0 = time.perf_counter()
        trees = [shortest_path_tree(topo, r) for r in roots]
        wall = time.perf_counter() - t0
    finally:
        del os.environ["REPRO_KERNEL"]
    return wall, [fingerprint(t) for t in trees]


def main(argv: list) -> int:
    failed = False
    lines = []
    # Gate mode records to the REPRO_STORE run store only; --update (or a
    # missing trajectory) refreshes the checked-in BENCH_scale.json.
    write = "--update" in argv or not BENCH_SCALE_JSON.exists()

    for n in SIZES:
        t0 = time.perf_counter()
        topo = scale_topology(n, seed=0)
        build_s = time.perf_counter() - t0
        roots = spread_roots(topo, N_ROOTS)
        params = dict(nodes=n, seed=0, roots=len(roots))
        base_extra = dict(
            nodes=n,
            links=topo.link_count,
            build_s=round(build_s, 4),
        )

        wall_py, prints_py = time_single_source(topo, roots, "python")
        record_bench(
            f"dijkstra_python@{n}",
            wall_py,
            len(roots),
            len(roots),
            config_hash=config_hash(dict(params, backend="python")),
            path=BENCH_SCALE_JSON,
            extra=dict(base_extra, kernel="python"),
            write_file=write,
        )

        if numpy_available():
            wall_np, prints_np = time_single_source(topo, roots, "numpy")
            if prints_np != prints_py:
                print(f"scale-bench: FAIL — backend mismatch at {n} nodes")
                failed = True
            record_bench(
                f"dijkstra_numpy@{n}",
                wall_np,
                len(roots),
                len(roots),
                config_hash=config_hash(dict(params, backend="numpy")),
                path=BENCH_SCALE_JSON,
                extra=dict(base_extra, kernel="numpy"),
                write_file=write,
            )

            os.environ["REPRO_KERNEL"] = "numpy"
            try:
                backend, view = select_backend(topo.csr())
                assert backend == "numpy"
                t0 = time.perf_counter()
                batched_dijkstra_arrays(topo, roots, view=view)
                wall_batch = time.perf_counter() - t0
            finally:
                del os.environ["REPRO_KERNEL"]
            speedup = (wall_py / len(roots)) / (wall_batch / len(roots))
            record_bench(
                f"dijkstra_batched@{n}",
                wall_batch,
                len(roots),
                len(roots),
                config_hash=config_hash(dict(params, backend="numpy-batched")),
                path=BENCH_SCALE_JSON,
                extra=dict(
                    base_extra,
                    kernel="numpy-batched",
                    speedup_vs_python=round(speedup, 2),
                ),
                write_file=write,
            )
            lines.append(
                f"{n:>7} nodes  build {build_s:6.2f}s  "
                f"python {wall_py / len(roots) * 1e3:8.2f} ms/root  "
                f"numpy {wall_np / len(roots) * 1e3:8.2f} ms/root  "
                f"batched {wall_batch / len(roots) * 1e3:8.2f} ms/root  "
                f"({speedup:.1f}x)"
            )
        else:
            lines.append(
                f"{n:>7} nodes  build {build_s:6.2f}s  "
                f"python {wall_py / len(roots) * 1e3:8.2f} ms/root  "
                f"(numpy unavailable)"
            )

    if 50_000 in SIZES:
        from repro.eval.experiments import traffic_weighted_table3

        sp0 = dijkstra_run_count()
        t0 = time.perf_counter()
        table = traffic_weighted_table3(**TRAFFIC_PINNED)
        wall = time.perf_counter() - t0
        sp = dijkstra_run_count() - sp0
        row = table["scale:50000"]["RTR"]
        record_bench(
            "traffic_weighted_table3@50000",
            wall,
            TRAFFIC_PINNED["n_scenarios"],
            sp,
            config_hash=config_hash(
                {k: list(v) if isinstance(v, tuple) else v for k, v in TRAFFIC_PINNED.items()}
            ),
            path=BENCH_SCALE_JSON,
            extra=dict(
                nodes=50_000,
                kernel="numpy" if numpy_available() else "python",
                disrupted_flows=row["disrupted_flows"],
                demand_recovery_rate_pct=row["demand_recovery_rate_pct"],
            ),
            write_file=write,
        )
        lines.append(
            f"  50000 nodes  traffic-weighted Table III "
            f"({TRAFFIC_PINNED['n_flows']:,} flows, "
            f"{TRAFFIC_PINNED['n_scenarios']} scenarios): {wall:.1f}s  "
            f"[{sp} SP computations]"
        )

    emit("bench_scale", "\n".join(lines))
    if failed:
        return 1
    mode = "trajectory refreshed" if write else "gate with: repro query regress"
    print(f"scale-bench: OK ({BENCH_SCALE_JSON.name}; {mode})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
