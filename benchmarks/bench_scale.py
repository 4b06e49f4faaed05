"""Internet-scale curves — the numpy kernel and `scale:` acceptance bench.

Times two workloads on `scale:` topologies of growing size (1k / 10k /
50k nodes by default):

* **single-source Dijkstra** on the heap reference ``_dijkstra_csr_kernel``
  and the vectorized ``dijkstra_numpy``, called directly; a row is the
  fastest of :data:`RUNS` runs, each parity-checked per root;
* **traffic-weighted Table III** (`scale:50000` only) — the end-to-end
  sweep: demand matrix, 1M flows, circular failures, RTR/FCP recovery.

Asserted on every run: numpy trees and the untimed level-order BFS
trees (``_bfs_csr_kernel``, which serves unit-cost graphs below the numpy
threshold) are bit-identical to the heap reference at every size — deep,
many-level unit graphs (a correctness bar, not a perf one).  The
former in-script speedup and wall-clock bars are retired — the perf gate
is ``repro query regress``, run by CI against the checked-in trajectory
after this bench records its measurements (to the ``REPRO_STORE`` run
store in gate mode; into ``BENCH_scale.json`` itself with ``--update``).

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
from repro.routing import dijkstra_run_count
from repro.routing.dijkstra import _bfs_csr_kernel, _dijkstra_csr_kernel
from repro.routing.kernels import dijkstra_numpy, numpy_available
from repro.topology.npcsr import numpy_view
from repro.topology.scale import scale_topology

BENCH_SCALE_JSON = Path(__file__).parent / "BENCH_scale.json"

SIZES = tuple(
    int(s)
    for s in os.environ.get("REPRO_SCALE_SIZES", "1000,10000,50000").split(",")
    if s.strip()
)

#: Roots per size for the per-tree timings (spread over the node range).
N_ROOTS = 8

#: Runs per kernel row: the row records the fastest, every run is
#: fingerprinted.  One run's wall time moves with the machine's state.
RUNS = 3

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
    """(best wall seconds of :data:`RUNS`, fingerprints, every run equal).

    Each run is fingerprinted and compared with the first; only the
    first run's fingerprints are kept.  Every numpy run includes building
    the graph's numpy mirror, which the first numpy tree on a graph pays:
    the cached mirror is dropped first.
    """
    walls, prints, stable = [], None, True
    for _ in range(RUNS):
        t0 = time.perf_counter()
        if backend == "numpy":
            csr = topo.csr()
            csr.np_cache = None
            view = numpy_view(csr)
            trees = [dijkstra_numpy(topo, view, r, False, None, None) for r in roots]
        else:
            trees = [_dijkstra_csr_kernel(topo, r, False, None, None) for r in roots]
        walls.append(time.perf_counter() - t0)
        run_prints = [fingerprint(t) for t in trees]
        if prints is None:
            prints = run_prints
        elif run_prints != prints:
            stable = False
    return min(walls), prints, stable


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

        wall_py, prints_py, stable = time_single_source(topo, roots, "python")
        if not stable:
            print(f"scale-bench: FAIL — heap kernel differs between runs at {n} nodes")
            failed = True
        prints_bfs = [
            fingerprint(_bfs_csr_kernel(topo, r, False, None, None)) for r in roots
        ]
        if prints_bfs != prints_py:
            print(f"scale-bench: FAIL — level-order BFS mismatch at {n} nodes")
            failed = True
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
            wall_np, prints_np, stable = time_single_source(topo, roots, "numpy")
            if not stable or prints_np != prints_py:
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
            lines.append(
                f"{n:>7} nodes  build {build_s:6.2f}s  "
                f"python {wall_py / len(roots) * 1e3:8.2f} ms/root  "
                f"numpy {wall_np / len(roots) * 1e3:8.2f} ms/root"
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
