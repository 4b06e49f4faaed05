#!/usr/bin/env python3
"""End-to-end benchmark of the RTR reproduction (see README.md beside this file).

One workload, the way ``BENCHMARK.json``'s driver calls it — the last line
of standard output is one JSON object::

    python3 benchmarks/e2e/run.py --workload paper_tables --seed 0 --seconds 20 --trace 0

A full set (every workload, repetitions interleaved round-robin, then one
traced repetition each), printed by name and written to a report::

    python3 benchmarks/e2e/run.py --seed 0 --reps 5 --out set1.json

``--check`` runs only the untimed driver-parity and golden checks,
``--compare A.json B.json`` judges report B against report A, and
``--smoke`` shrinks every workload to about a second.

Every repetition is a fresh child process of this file (``--child``),
started one at a time with all ``REPRO_*`` variables scrubbed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: Repetitions of one workload in a driver run (``--workload``), whatever
#: ``--seconds`` says: a median needs three.
MIN_REPS = 3
DEFAULT_REPS = 5
CHILD_TIMEOUT_S = 170

#: The parts of the parity check (``child_check``).
ALL_CHECKS = ("tables", "traffic", "congestion")


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"bench-e2e: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# Child side: one repetition, or the parity check
# ----------------------------------------------------------------------


def child_repetition(args: argparse.Namespace) -> None:
    """Run one repetition of one workload and print its result as one JSON line."""
    started = time.perf_counter()
    import repro  # noqa: F401 — the clock starts after the program is imported
    import metrics
    import tracing
    import workloads

    import_s = time.perf_counter() - started
    workload = workloads.WORKLOADS[args.child]
    if workload.requires_numpy:
        from repro.routing.kernels import numpy_available

        if not numpy_available():
            fail(f"{workload.name} needs numpy; without it a different program would be timed")

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(run_id=f"{workload.name}-seed{args.seed}")
        tracing.install_wrappers(tracer)
        for target, span in tracer.missing:
            print(f"bench-e2e: warning: {target} does not resolve; {span} is null", file=sys.stderr)
        counters_before = metrics.read_process_counters()
        tracer.push(tracing.ROOT_SPAN)
    rec = workloads.Recorder(tracer)
    outcome = workloads.run_workload(
        workload, rec, args.seed, args.smoke, inject_violation=args.inject_violation
    )
    layers = None
    if tracer is not None:
        tracer.pop()
        counters_after = metrics.read_process_counters()
        scale = sum(rec.stage_s.values()) / sum(rec.wall_s.values())
        layers = metrics.reduce_trace(
            tracer, scale, outcome.counts, counters_before, counters_after
        )
        idle = [span for span in workload.active if span not in tracer.names]
        if idle and not tracer.missing and not args.smoke:
            outcome.violations.append(f"wrapped but never called (bypassed binding?): {idle}")
        if args.trace_out:
            tracer.write(args.trace_out)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(
        json.dumps(
            {
                "sweep_s": rec.stage_s["sweep"],
                "setup_s": rec.stage_s["setup"],
                "wall_s": rec.wall_s,
                "windows_ms": rec.windows_ms,
                "attempts": outcome.attempts,
                "errors": outcome.errors,
                "violations": outcome.violations,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "import_s": import_s,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "digest": outcome.digest(),
                "layers": layers,
            }
        )
    )


def child_check(args: argparse.Namespace) -> None:
    """Staged drivers == public experiment functions; golden sweep unchanged."""
    import workloads
    from repro.eval.experiments import (
        table3_recoverable,
        table4_wasted_summary,
        traffic_scenario_list,
        traffic_weighted_table3,
    )
    from repro.eval.golden import diff_against_golden

    def same(what: str, staged: object, public: object) -> None:
        normal = [json.loads(json.dumps(x, sort_keys=True)) for x in (staged, public)]
        if normal[0] != normal[1]:
            fail(f"check failed: staged {what} differs from the public function's table")

    seed = args.seed
    parts = args.child_check.split(",")
    if "tables" in parts:
        topologies, cases = ("AS209", "AS1239"), 40
        staged = workloads.run_tables(workloads.Recorder(), seed, topologies, 1, cases, cases).tables
        same("Table III", staged["table3"], table3_recoverable(topologies, cases, seed))
        same("Table IV", staged["table4"], table4_wasted_summary(topologies, cases, seed))
        if diff_against_golden():
            fail("check failed: repro.eval.golden.diff_against_golden() is not empty")
    for part, options in (
        ("traffic", dict(approaches=("RTR", "FCP"))),
        ("congestion", dict(approaches=("RTR", "r3"), congestion_aware=True, utilization_cap=1.5)),
    ):
        if part not in parts:
            continue
        staged = workloads.run_traffic(
            workloads.Recorder(), seed, "AS7018", 100_000, ((part, options),),
            scenarios_of=lambda topo: traffic_scenario_list(topo, seed, 3),
        ).tables[part]
        public = traffic_weighted_table3(("AS7018",), 3, seed, n_flows=100_000, **options)
        same(f"traffic table ({part})", staged, public["AS7018"])
    print(f"bench-e2e: check ok ({', '.join(parts)})", file=sys.stderr)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(child_args: Sequence[str]) -> str:
    """Run this file as a child, wait for it, return its standard output."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *child_args],
        env=child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"child {' '.join(child_args)} exited with code {proc.returncode}")
    return proc.stdout


def run_check(parts: Sequence[str], seed: int) -> None:
    spawn(["--child-check", ",".join(parts), "--seed", str(seed)])


def repetition(name: str, args: argparse.Namespace, trace: bool) -> Dict[str, object]:
    child_args = ["--child", name, "--seed", str(args.seed), "--trace", str(int(trace))]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        child_args += ["--trace-out", str(OUT_DIR / f"trace-{name}.json")]
    if args.smoke:
        child_args.append("--smoke")
    if args.inject_violation:
        child_args.append("--inject-violation")
    return json.loads(spawn(child_args).strip().splitlines()[-1])


def measure(
    names: Sequence[str], args: argparse.Namespace, reps: int, seconds: float, trace: bool
) -> Dict[str, Dict[str, object]]:
    """Untraced repetitions round-robin over ``names``, then one traced each.

    Rounds go on until every workload has ``reps`` repetitions and
    ``seconds`` of child time have been spent on it.
    """
    runs: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    spent = {name: 0.0 for name in names}
    while True:
        due = [n for n in names if len(runs[n]) < reps or spent[n] < seconds]
        if not due:
            break
        for name in due:
            started = time.perf_counter()
            runs[name].append(repetition(name, args, trace=False))
            spent[name] += time.perf_counter() - started
    traced = {name: repetition(name, args, trace=True) for name in names} if trace else {}
    return {name: aggregate(runs[name], traced.get(name)) for name in names}


def aggregate(
    runs: List[Dict[str, object]], traced: Optional[Dict[str, object]]
) -> Dict[str, object]:
    import metrics

    every = runs + ([traced] if traced else [])
    violations = [v for run in every for v in run["violations"]]
    if len({run["digest"] for run in every}) != 1:
        violations.append("result_digest differs between repetitions of the same inputs")
    attempts = runs[0]["attempts"]
    attempted = sum(run["attempts"] for run in every)
    failed = sum(run["errors"] for run in every) + len(violations)

    samples = {
        "sweep_s": [run["sweep_s"] for run in runs],
        "setup_s": [run["setup_s"] for run in runs],
        "cases_per_s": [attempts / run["sweep_s"] for run in runs],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
        "failed_share": [failed / attempted if attempted else 1.0],
    }
    end_to_end = {
        metric: {"unit": metrics.END_TO_END[metric][0], **metrics.summarize(values)}
        for metric, values in samples.items()
    }
    result = {
        "result_digest": runs[0]["digest"],
        "attempts_per_repetition": attempts,
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "end_to_end": end_to_end,
    }
    if traced:
        layers = dict(traced["layers"])
        windows = [ms for run in runs for ms in run["windows_ms"]]
        layers.update(metrics.window_percentiles(windows))
        layers["bench.import_s"] = traced["import_s"]
        layers["bench.cpu_s"] = traced["cpu_s"]
        layers["bench.wall_ratio"] = statistics.median(
            sum(run["wall_s"].values()) / (run["sweep_s"] + run["setup_s"]) for run in runs
        )
        sweep = end_to_end["sweep_s"]
        layers["bench.spread_share"] = metrics.spread_share(sweep)
        layers["bench.trace_overhead_share"] = (traced["sweep_s"] - sweep["median"]) / sweep["median"]
        result["window_samples"] = len(windows)
        result["per_layer"] = {
            metric: {"unit": metrics.PER_LAYER[metric][0], "value": layers[metric]}
            for metric in metrics.PER_LAYER
        }
    return result


def provenance(args: argparse.Namespace, reps: int) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    described = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    commit = described.stdout.strip() if described.returncode == 0 else "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "reps": reps,
        "smoke": args.smoke,
        "git_describe": commit,
        "dirty": commit.endswith("-dirty"),
        "scrubbed_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def print_metrics(name: str, result: Dict[str, object]) -> None:
    print(f"== {name}  result_digest={result['result_digest'][:16]}  "
          f"attempts={result['attempts_per_repetition']}  failed={result['failed']}")
    for metric, s in result["end_to_end"].items():
        print(f"  {metric:<34} {s['median']:>14.6g} {s['unit']:<6} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    for metric, entry in result.get("per_layer", {}).items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<34} {shown:>14} {entry['unit']}")
    for violation in result["violations"]:
        print(f"  VIOLATION {violation}")


def driver_run(args: argparse.Namespace) -> int:
    """One workload; the last line of stdout is the driver's JSON object."""
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_check([workloads.WORKLOADS[args.workload].check], args.seed)
    # A traced run keeps two untraced repetitions: the tracing overhead and
    # the spread are measured against them.
    reps = MIN_REPS - 1 if args.trace else MIN_REPS
    seconds = 0.0 if args.trace else args.seconds
    result = measure([args.workload], args, reps, seconds, bool(args.trace))[args.workload]
    print_metrics(args.workload, result)
    if args.trace:
        # The result line carries numbers only: an unavailable value
        # (unresolved wrapper, unsupported percentile) reads 0 there and
        # null in a report; bench.wrappers_missing tells the two apart.
        values = {
            m["name"]: {"value": result["per_layer"][m["name"]]["value"] or 0, "unit": m["unit"]}
            for m in benchmark["per_layer"]
        }
    else:
        values = {
            m["name"]: {"value": result["end_to_end"][m["name"]]["median"], "unit": m["unit"]}
            for m in benchmark["end_to_end"]
        }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": values,
    }))
    return 1 if result["failed"] else 0


def full_set(args: argparse.Namespace) -> int:
    import workloads

    names = list(workloads.WORKLOADS)
    reps = args.reps if args.reps is not None else (1 if args.smoke else DEFAULT_REPS)
    run_check(ALL_CHECKS, args.seed)
    results = measure(names, args, reps, 0.0, trace=True)
    for name, result in results.items():
        print_metrics(name, result)
    if args.out:
        report = {"provenance": provenance(args, reps), "workloads": results}
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 1 if any(r["failed"] for r in results.values()) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="with --workload: keep repeating until this much time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, help=f"full set: timed repetitions (default {DEFAULT_REPS})")
    parser.add_argument("--out", help="full set: write the report here")
    parser.add_argument("--smoke", action="store_true", help="shrink every workload to about a second")
    parser.add_argument("--check", action="store_true", help="only the untimed parity and golden checks")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--inject-violation", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--child-check", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], ROOT / "BENCHMARK.json")
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"the program under test is missing: {SRC / 'repro'} not found")
    sys.path.insert(0, str(SRC))
    if args.child:
        child_repetition(args)
        return 0
    if args.child_check:
        child_check(args)
        return 0
    if args.check:
        run_check(ALL_CHECKS, args.seed)
        return 0
    if args.workload:
        return driver_run(args)
    return full_set(args)


if __name__ == "__main__":
    sys.exit(main())
