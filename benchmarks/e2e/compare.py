"""``run.py --compare A.json B.json``: judge report B against report A.

One row per (end-to-end metric, workload).  The verdict follows
choosing-metrics section 6.5: a metric whose run-to-run spread is wider
than its bound cannot be called unchanged while the two sets' runs
overlap — it is ``unresolved``, not ``ok``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from metrics import END_TO_END, spread_share

#: ``setup_s`` is tens of milliseconds on the ISP workloads: allow it an
#: absolute floor beside its relative bound.
SETUP_FLOOR_S = 0.05


def verdict(metric: str, a: Dict, b: Dict, bound: float) -> str:
    lower_is_better = END_TO_END[metric][1] == "lower"
    worse_by = b["median"] - a["median"] if lower_is_better else a["median"] - b["median"]
    allowed = bound * abs(a["median"])
    if metric == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    overlap = min(a["values"]) <= max(b["values"]) and min(b["values"]) <= max(a["values"])
    if bound and max(spread_share(a), spread_share(b)) > bound and overlap:
        return "unresolved"
    return "regressed" if worse_by > allowed else "ok"


def main(path_a: str, path_b: str, benchmark_path: Path) -> int:
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    bounds = {m["name"]: m["bound"] for m in json.loads(benchmark_path.read_text())["end_to_end"]}
    bounds["failed_share"] = 0.0  # absolute: any failure is a regression
    regressed = False
    print(f"{'workload':<15} {'metric':<13} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
          f"{'B/A':<22} verdict")
    for name in a:
        if name not in b:
            print(f"{name:<15} missing from {path_b}")
            regressed = True
            continue
        for metric, sa in a[name]["end_to_end"].items():
            sb = b[name]["end_to_end"][metric]
            outcome = verdict(metric, sa, sb, bounds[metric])
            regressed |= outcome == "regressed"
            cells = [f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}" for s in (sa, sb)]
            base = f"{sa['median']:.5g} {sa['unit']}"
            ratio = f"{sb['median'] / sa['median']:.3f} of {base}" if sa["median"] else f"- of {base}"
            print(f"{name:<15} {metric:<13} {cells[0]:<34} {cells[1]:<34} {ratio:<22} {outcome}")
        same = a[name]["result_digest"] == b[name]["result_digest"]
        print(f"{name:<15} {'result_digest':<13} {'equal' if same else 'changed'}")
    return 1 if regressed else 0
