"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``topo list`` — the Table II catalog;
* ``topo build AS1239 -o t.json`` — build and save a catalog topology;
* ``topo stats t.json`` / ``topo stats AS1239`` — structural statistics;
* ``recover`` — run one recovery episode and print the trace;
* ``eval <experiment>`` — regenerate one table/figure (table2, fig7,
  table3, fig8, fig9, fig10, fig11, fig12, fig13, table4), with
  ``--approaches`` accepting any registered scheme name;
* ``schemes`` — list the registered recovery schemes (built-ins plus
  plugins from ``REPRO_SCHEME_MODULES``);
* ``traffic`` — traffic-weighted Table III: apportion a synthetic flow
  population over a seeded demand matrix and weight recovery quality by
  the demand each disrupted pair carries (``--model gravity --flows
  1000000 --parallel``);
* ``soak`` — a crash-recoverable long-horizon run: replay a seeded
  failure timeline (cascades, repairs, flaps) through the scheme
  registry for hours of simulated time, checkpointing after every
  batch; ``--resume <run-dir>`` continues after a kill with a final
  summary byte-identical to an uninterrupted run (exit 3 = interrupted
  with checkpoint);
* ``obs report`` — render the manifest/metrics/span breakdown of an
  instrumented run (``REPRO_OBS=1 repro eval ...`` writes one); add
  ``--json`` for the machine-readable document;
* ``query`` — the persistent run store (``repro.store``): ``ingest``
  obs-runs/BENCH json/results dirs into a sqlite store, then ``list`` /
  ``show`` / ``diff`` / ``trend`` / ``regress`` across every recorded
  run; ``regress`` compares the latest stored rows against pinned
  ``BENCH_*.json`` baselines and exits nonzero on a regression;
* ``render`` — draw a topology/failure/recovery episode as SVG.

Error hygiene: usage-level failures (unknown topology or scheme, bad
scenario seed, malformed soak config) print one ``error:`` line to
stderr and exit 2 — never a traceback.

Logging: the ``repro`` logger hierarchy is silent by default; ``--log``
(or ``REPRO_LOG=INFO``) attaches a stderr handler at the given level.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__, obs
from .core import RTR
from .errors import ReproError
from .failures import FailureScenario, LocalView, random_circle
from .geometry import Circle, Point
from .topology import Topology, isp_catalog, save_topology, topology_from_spec
from .topology.validation import stats as topo_stats


def _load_or_build(spec: str, seed: int) -> Topology:
    """Resolve a topology spec (grid:RxC, AS name, or JSON path)."""
    return topology_from_spec(spec, seed=seed)


def _usage_error(exc: BaseException) -> int:
    """The one-line-error-to-stderr, exit-2 convention of this CLI."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _scenario_from_args(topo: Topology, args: argparse.Namespace) -> FailureScenario:
    if args.cx is not None and args.cy is not None and args.radius is not None:
        region = Circle(Point(args.cx, args.cy), args.radius)
        return FailureScenario.from_region(topo, region)
    rng = random.Random(args.seed)
    scenario = FailureScenario.from_region(topo, random_circle(rng))
    attempts = 0
    while not scenario.failed_links and attempts < 1000:
        scenario = FailureScenario.from_region(topo, random_circle(rng))
        attempts += 1
    return scenario


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------


def cmd_topo(args: argparse.Namespace) -> int:
    from .eval.report import format_table

    if args.topo_command == "list":
        print(format_table(isp_catalog.summary_rows(include_extended=args.extended)))
        return 0
    if args.topo_command == "build":
        topo = isp_catalog.build(args.name.upper(), seed=args.seed)
        if args.output:
            save_topology(topo, args.output)
            print(f"wrote {args.output}")
        else:
            print(topo)
        return 0
    if args.topo_command == "stats":
        topo = _load_or_build(args.spec, args.seed)
        print(format_table([topo_stats(topo)]))
        return 0
    raise AssertionError(args.topo_command)


def cmd_recover(args: argparse.Namespace) -> int:
    try:
        return _run_recover(args)
    except (ReproError, FileNotFoundError) as exc:
        return _usage_error(exc)


def _run_recover(args: argparse.Namespace) -> int:
    topo = _load_or_build(args.topology, args.seed)
    scenario = _scenario_from_args(topo, args)
    if not scenario.failed_links:
        if args.cx is not None and args.cy is not None and args.radius is not None:
            # An explicitly harmless circle is a ran-but-found-nothing
            # outcome (exit 1), not a usage error.
            print("the failure area destroyed nothing; adjust --cx/--cy/--radius")
            return 1
        return _usage_error(
            f"seed {args.seed} found no damaging failure region on "
            f"{args.topology} after 1000 draws; try another --seed"
        )
    print(f"failure: {len(scenario.failed_nodes)} routers, {len(scenario.failed_links)} links down")

    rtr = RTR(topo, scenario)
    view = LocalView(scenario)

    pair = _pick_pair(args, topo, scenario, rtr, view)
    if pair is None:
        print("no failed routing path with a live source found")
        return 1
    source, destination = pair

    try:
        result = rtr.recover_flow(source, destination)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}")
        return 1
    initiator, trigger = rtr.find_initiator(source, destination)
    phase1 = rtr.phase1_for(initiator, trigger)
    print(f"flow v{source} -> v{destination}: initiator v{initiator}")
    print(
        f"phase 1: {phase1.hops} hops, {phase1.duration * 1000:.1f} ms, "
        f"{len(phase1.collected_failed_links)} failed links collected"
    )
    if result.delivered:
        print(f"recovered: {result.path}")
    else:
        print("destination unreachable: packets discarded at the initiator")
    return 0


def _pick_pair(args, topo, scenario, rtr, view):
    if args.source is not None and args.destination is not None:
        return args.source, args.destination
    for source in sorted(scenario.live_nodes()):
        for destination in sorted(scenario.live_nodes()):
            if source == destination:
                continue
            path = rtr.routing.path(source, destination)
            if path is None:
                continue
            if any(not view.is_neighbor_reachable(a, b) for a, b in path.hops()):
                return source, destination
    return None


def _parse_approaches(spec: Optional[str]) -> Optional[tuple]:
    """Split and registry-validate a ``--approaches`` value.

    Returns ``None`` when no value was given (drivers keep their
    defaults); raises the registry's :class:`ValueError` — listing
    registered schemes and the nearest match — on an unknown name.
    """
    if not spec:
        return None
    from .schemes import validate_names

    approaches = tuple(part.strip() for part in spec.split(",") if part.strip())
    validate_names(approaches)
    return approaches


def cmd_eval(args: argparse.Namespace) -> int:
    topologies = tuple(args.topos.split(",")) if args.topos else tuple(isp_catalog.names())
    n = args.cases
    try:
        approaches = _parse_approaches(args.approaches)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    name = args.experiment
    config = {"experiment": name, "cases": n, "topologies": list(topologies)}
    if approaches is not None:
        config["approaches"] = list(approaches)
    with obs.run_context(
        f"eval-{name}",
        seed=args.seed,
        config=config,
        topologies=topologies,
    ) as manifest:
        try:
            code = _run_eval_experiment(args, name, topologies, n, approaches)
        except (ReproError, FileNotFoundError) as exc:
            return _usage_error(exc)
    if manifest is not None and manifest.artifacts_dir:
        print(f"obs artifacts: {manifest.artifacts_dir}", file=sys.stderr)
    return code


def _run_eval_experiment(
    args: argparse.Namespace,
    name: str,
    topologies: tuple,
    n: int,
    approaches: Optional[tuple] = None,
) -> int:
    from .eval import experiments
    from .eval.report import format_cdf, format_nested_table, format_series, format_table

    # Drivers keep their paper-default comparison sets unless overridden.
    extra = {} if approaches is None else {"approaches": approaches}
    if name == "table2":
        print(format_table(experiments.table2_topologies(seed=args.seed)))
    elif name == "fig7":
        out = experiments.fig7_phase1_duration(topologies, n, n // 2, args.seed)
        for topo_name, data in out.items():
            print(f"{topo_name:8s} {format_cdf(data['cdf'])}")
    elif name == "table3":
        print(
            format_nested_table(
                experiments.table3_recoverable(topologies, n, args.seed, **extra)
            )
        )
    elif name in ("fig8", "fig9", "fig12", "fig13"):
        driver = {
            "fig8": experiments.fig8_stretch,
            "fig9": experiments.fig9_sp_computations,
            "fig12": experiments.fig12_wasted_computation,
            "fig13": experiments.fig13_wasted_transmission,
        }[name]
        out = driver(topologies, n, args.seed, **extra)
        for topo_name, series in out.items():
            for approach, cdf in series.items():
                print(f"{topo_name:8s} {approach:4s} {format_cdf(cdf)}")
    elif name == "fig10":
        out = experiments.fig10_transmission_timeline(topologies, n, args.seed, **extra)
        for topo_name, series in out.items():
            for approach, pts in series.items():
                print(f"{topo_name:8s} {approach:4s} {format_series(pts)}")
    elif name == "fig11":
        out = experiments.fig11_irrecoverable_fraction(
            topologies, n_areas_per_radius=max(10, n // 10), seed=args.seed
        )
        for topo_name, series in out.items():
            print(f"{topo_name:8s} {format_series(series)}")
    elif name == "table4":
        table = experiments.table4_wasted_summary(topologies, n, args.seed, **extra)
        print(format_nested_table({k: v for k, v in table.items() if k != "Savings"}))
        print(f"savings: {table.get('Savings')}")
    else:
        print(f"unknown experiment {name!r}")
        return 2
    return 0


def cmd_schemes(args: argparse.Namespace) -> int:
    from .schemes import get_scheme, scheme_names

    names = scheme_names()
    width = max(len(n) for n in names)
    for name in names:
        print(f"{name:<{width}s}  {get_scheme(name).describe()}")
    return 0


def cmd_traffic(args: argparse.Namespace) -> int:
    from .eval.report import format_nested_table
    from .traffic import MATRIX_MODELS

    if args.model not in MATRIX_MODELS:
        print(
            f"unknown traffic model {args.model!r}; "
            f"choose from {sorted(MATRIX_MODELS)}",
            file=sys.stderr,
        )
        return 2
    topologies = tuple(args.topos.split(",")) if args.topos else tuple(isp_catalog.names())
    try:
        approaches = _parse_approaches(args.approaches) or ("RTR", "FCP")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.headroom is not None and args.headroom <= 0.0:
        print(f"error: headroom must be > 0, got {args.headroom}", file=sys.stderr)
        return 2
    if args.utilization_cap is not None and args.utilization_cap <= 0.0:
        print(
            f"error: utilization cap must be > 0, got {args.utilization_cap}",
            file=sys.stderr,
        )
        return 2
    if args.utilization_cap is not None and not args.congestion_aware:
        print(
            "error: --utilization-cap requires --congestion-aware",
            file=sys.stderr,
        )
        return 2
    config = {
        "experiment": "traffic",
        "model": args.model,
        "flows": args.flows,
        "scenarios": args.scenarios,
        "topologies": list(topologies),
        "approaches": list(approaches),
    }
    if args.congestion_aware:
        config["congestion_aware"] = True
    if args.headroom is not None:
        config["headroom"] = args.headroom
    if args.utilization_cap is not None:
        config["utilization_cap"] = args.utilization_cap
    with obs.run_context(
        "traffic", seed=args.seed, config=config, topologies=topologies
    ) as manifest:
        options = dict(
            seed=args.seed,
            model=args.model,
            total_demand=args.demand,
            n_flows=args.flows,
            approaches=approaches,
            congestion_aware=args.congestion_aware,
            headroom=args.headroom,
            utilization_cap=args.utilization_cap,
        )
        if args.parallel:
            from .eval.parallel import parallel_traffic

            table = parallel_traffic(
                topologies, args.scenarios, jobs=args.jobs, **options
            )
        else:
            from .eval.experiments import traffic_weighted_table3

            table = traffic_weighted_table3(topologies, args.scenarios, **options)
        print(format_nested_table(table))
    if manifest is not None and manifest.artifacts_dir:
        print(f"obs artifacts: {manifest.artifacts_dir}", file=sys.stderr)
    return 0


def cmd_soak(args: argparse.Namespace) -> int:
    from .soak import SoakConfig, SoakService
    from .timeline import TimelinePlan

    try:
        if args.resume:
            service = SoakService.resume(Path(args.resume))
        else:
            plan = TimelinePlan(
                seed=args.seed,
                duration_s=args.duration,
                n_failures=args.failures,
                cascade_probability=args.cascade_probability,
                cascade_mode=args.cascade_mode,
                n_flapping_links=args.flapping_links,
                flap_period_s=args.flap_period,
                flap_cycles=args.flap_cycles,
            )
            config = SoakConfig(
                topology=args.topology,
                approaches=_parse_approaches(args.approaches) or ("RTR", "OSPF"),
                model=args.model,
                total_demand=args.demand,
                traffic_seed=args.seed,
                n_flows=args.flows,
                checkpoint_every=args.checkpoint_every,
                workers=args.workers,
                timeline=plan,
            )
            run_dir = (
                Path(args.run_dir)
                if args.run_dir
                else obs.default_run_dir()
                / f"soak-{obs.config_hash(config.to_dict())}"
            )
            service = SoakService.start(config, run_dir)
    except (ReproError, FileNotFoundError, ValueError) as exc:
        return _usage_error(exc)

    print(f"soak run: {service.run_dir}", file=sys.stderr)
    print(
        f"timeline: {len(service.events)} events across "
        f"{len(service.windows)} convergence windows "
        f"(starting at window {service.cursor})",
        file=sys.stderr,
    )
    status, summary = service.run()
    if status == "interrupted":
        print(
            "interrupted — checkpoint written; resume with "
            f"`repro soak --resume {service.run_dir}`",
            file=sys.stderr,
        )
        return 3
    assert summary is not None
    print(
        f"{'approach':10s} {'delivered':>10s} {'recovery':>9s} "
        f"{'stretch':>8s} {'p1 loss':>9s}"
    )
    for name in service.config.approaches:
        row = summary["approaches"][name]
        print(
            f"{name:10s} {row['demand_delivered_fraction']:10.4f} "
            f"{row['demand_recovery_rate']:9.4f} "
            f"{row['demand_weighted_stretch']:8.3f} "
            f"{row['phase1_loss']:9.3f}"
        )
    print(f"summary: {service.run_dir / 'summary.json'}", file=sys.stderr)
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    import json as _json

    if args.obs_command == "report":
        if args.run_dir:
            run_dir = Path(args.run_dir)
        else:
            run_dir = obs.latest_run_dir(obs.default_run_dir())
            if run_dir is None:
                print(
                    "no instrumented runs found under "
                    f"{obs.default_run_dir()} — run e.g. "
                    "`REPRO_OBS=1 repro eval table3` first",
                    file=sys.stderr,
                )
                return 1
        if not run_dir.is_dir():
            print(f"error: run directory {run_dir} does not exist", file=sys.stderr)
            return 1
        if not (run_dir / "manifest.json").exists():
            print(
                f"error: {run_dir} is not an instrumented run "
                "(no manifest.json — pass a directory written by "
                "REPRO_OBS=1)",
                file=sys.stderr,
            )
            return 1
        try:
            run = obs.load_run(run_dir)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load run {run_dir}: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(_json.dumps(obs.run_report_doc(run), indent=2, sort_keys=True))
        else:
            print(obs.render_report(run, top=args.top))
        return 0
    raise AssertionError(args.obs_command)


def cmd_query(args: argparse.Namespace) -> int:
    import json as _json

    from . import store as store_mod
    from .errors import StoreError

    store_path = Path(args.store) if args.store else store_mod.default_store_path()

    if args.query_command == "ingest":
        try:
            with store_mod.RunStore(store_path) as store:
                totals: dict = {}
                for raw in args.paths:
                    counts = store_mod.ingest_path(store, Path(raw))
                    for kind, n in counts.items():
                        totals[kind] = totals.get(kind, 0) + n
                    print(
                        f"ingested {raw}: "
                        + ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items()))
                    )
                print(
                    f"store {store_path}: "
                    + ", ".join(f"{v} {k}" for k, v in sorted(store.counts().items()))
                )
        except (StoreError, OSError) as exc:
            return _usage_error(exc)
        return 0

    # Every other subcommand reads an existing store.
    if not Path(store_path).exists():
        return _usage_error(
            f"run store {store_path} does not exist — create one with "
            "`repro query ingest ...` or set REPRO_STORE and run an "
            "instrumented command"
        )
    try:
        with store_mod.RunStore(store_path) as store:
            return _run_query(args, store, store_mod, _json)
    except StoreError as exc:
        return _usage_error(exc)


def _run_query(args: argparse.Namespace, store, store_mod, _json) -> int:
    if args.query_command == "list":
        rows, columns = store_mod.list_rows(
            store,
            kind=args.kind,
            benchmark=args.benchmark,
            scheme=args.scheme,
            topology=args.topology,
            config_hash=args.config_hash,
        )
        print(store_mod.render_rows(rows, fmt=args.format, columns=columns))
        return 0
    if args.query_command == "show":
        if args.bench_file:
            doc = store.bench_file_doc(args.bench_file)
        elif args.ref:
            doc = store_mod.show_doc(store, args.ref)
        else:
            return _usage_error("show needs a run reference or --bench-file")
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if args.query_command == "diff":
        diff = store_mod.diff_runs(store, args.run_a, args.run_b)
        if args.format == "json":
            print(_json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(store_mod.render_diff(diff))
        return 0
    if args.query_command == "trend":
        series = store_mod.trend_series(
            store,
            args.metric,
            benchmark=args.benchmark,
            run_name=args.run,
        )
        print(store_mod.render_trend(series, fmt=args.format))
        return 0
    if args.query_command == "regress":
        baselines = [Path(p) for p in args.baseline] if args.baseline else sorted(
            Path("benchmarks").glob("BENCH_*.json")
        )
        if not baselines:
            return _usage_error(
                "no baseline files: pass --baseline FILE or run from a "
                "checkout containing benchmarks/BENCH_*.json"
            )
        thresholds = dict(store_mod.DEFAULT_THRESHOLDS)
        thresholds.update(store_mod.parse_threshold_overrides(args.threshold or []))
        verdicts, code = store_mod.run_regress(
            store,
            baselines,
            thresholds=thresholds,
            benchmark=args.benchmark,
            strict=args.strict,
        )
        for verdict in verdicts:
            print(verdict.line())
        print(store_mod.summary_line(verdicts))
        return code
    raise AssertionError(args.query_command)


def cmd_render(args: argparse.Namespace) -> int:
    from .viz import render_topology, save_svg

    topo = _load_or_build(args.topology, args.seed)
    scenario = None
    walk = recovery = None
    if args.failure:
        scenario = _scenario_from_args(topo, args)
        rtr = RTR(topo, scenario)
        view = LocalView(scenario)
        pair = _pick_pair(args, topo, scenario, rtr, view)
        if pair is not None:
            result = rtr.recover_flow(*pair)
            initiator, trigger = rtr.find_initiator(*pair)
            walk = rtr.phase1_for(initiator, trigger).walk
            if result.delivered:
                recovery = list(result.path.nodes)
    svg = render_topology(
        topo,
        scenario=scenario,
        walk=walk,
        recovery_path=recovery,
        labels=not args.no_labels,
        title=args.topology,
    )
    save_svg(svg, args.output)
    print(f"wrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="RTR reproduction toolkit"
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--log",
        metavar="LEVEL",
        help="enable repro logging at LEVEL (overrides REPRO_LOG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topo", help="topology catalog operations")
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)
    topo_list = topo_sub.add_parser("list", help="show the Table II catalog")
    topo_list.add_argument("--extended", action="store_true")
    topo_build = topo_sub.add_parser("build", help="build a catalog topology")
    topo_build.add_argument("name")
    topo_build.add_argument("--seed", type=int, default=0)
    topo_build.add_argument("-o", "--output")
    topo_stats_p = topo_sub.add_parser("stats", help="structural statistics")
    topo_stats_p.add_argument("spec", help="AS name or topology JSON path")
    topo_stats_p.add_argument("--seed", type=int, default=0)
    topo.set_defaults(func=cmd_topo)

    recover = sub.add_parser("recover", help="run one recovery episode")
    recover.add_argument("--topology", default="AS1239")
    recover.add_argument("--seed", type=int, default=0)
    recover.add_argument("--cx", type=float)
    recover.add_argument("--cy", type=float)
    recover.add_argument("--radius", type=float)
    recover.add_argument("--source", type=int)
    recover.add_argument("--destination", type=int)
    recover.set_defaults(func=cmd_recover)

    ev = sub.add_parser("eval", help="regenerate a table/figure")
    ev.add_argument(
        "experiment",
        choices=[
            "table2", "fig7", "table3", "fig8", "fig9",
            "fig10", "fig11", "fig12", "fig13", "table4",
        ],
    )
    ev.add_argument("--cases", type=int, default=150)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--topos", help="comma-separated topology specs: AS names, grid:RxC, scale:N, file:PATH (default: the AS catalog)")
    ev.add_argument(
        "--approaches",
        help="comma-separated registered scheme names "
        "(default: the experiment's paper comparison set; see `repro schemes`)",
    )
    ev.set_defaults(func=cmd_eval)

    schemes = sub.add_parser(
        "schemes", help="list the registered recovery schemes"
    )
    schemes.set_defaults(func=cmd_schemes)

    traffic = sub.add_parser(
        "traffic", help="traffic-weighted Table III (demand-driven workload)"
    )
    traffic.add_argument(
        "--model",
        default="gravity",
        help="demand model: gravity, uniform, or hotspot",
    )
    traffic.add_argument(
        "--flows", type=int, default=1_000_000, help="synthetic flow population"
    )
    traffic.add_argument(
        "--demand",
        type=float,
        default=None,
        help="aggregate matrix demand (default: 1000.0)",
    )
    traffic.add_argument(
        "--scenarios", type=int, default=10, help="failure events per topology"
    )
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--topos", help="comma-separated topology specs: AS names, grid:RxC, scale:N, file:PATH (default: the AS catalog)")
    traffic.add_argument(
        "--approaches", default="RTR,FCP", help="comma-separated approach names"
    )
    traffic.add_argument(
        "--parallel", action="store_true", help="scenario-sharded process pool"
    )
    traffic.add_argument(
        "--jobs", type=int, default=None, help="worker count for --parallel"
    )
    traffic.add_argument(
        "--congestion-aware",
        action="store_true",
        help="live-load loop: penalized phase-2 selection + per-case "
        "load feedback (repro.te)",
    )
    traffic.add_argument(
        "--headroom",
        type=float,
        default=None,
        help="capacity provisioning factor over baseline load (default 2.0)",
    )
    traffic.add_argument(
        "--utilization-cap",
        type=float,
        default=None,
        help="admission control: shed recoveries that would push a link "
        "past this utilization (requires --congestion-aware)",
    )
    traffic.set_defaults(func=cmd_traffic)

    soak = sub.add_parser(
        "soak", help="crash-recoverable long-horizon timeline run"
    )
    soak.add_argument(
        "--resume",
        metavar="RUN_DIR",
        help="continue a journaled run (all other flags are ignored)",
    )
    soak.add_argument(
        "--topology",
        default="grid:6x6:400",
        help="grid:RxC[:SPACING], AS name, or topology JSON path",
    )
    soak.add_argument("--seed", type=int, default=0, help="timeline + traffic seed")
    soak.add_argument(
        "--duration", type=float, default=3600.0, help="simulated seconds"
    )
    soak.add_argument(
        "--failures", type=int, default=3, help="primary failure regions"
    )
    soak.add_argument(
        "--flapping-links", type=int, default=1, help="oscillating links"
    )
    soak.add_argument(
        "--flap-period", type=float, default=60.0, help="flap period (s)"
    )
    soak.add_argument(
        "--flap-cycles", type=int, default=3, help="down/up cycles per flapping link"
    )
    soak.add_argument(
        "--cascade-probability",
        type=float,
        default=0.35,
        help="chance each failure triggers a secondary region",
    )
    soak.add_argument(
        "--cascade-mode",
        choices=["proximity", "load"],
        default="proximity",
        help="where secondary regions strike",
    )
    soak.add_argument(
        "--approaches", default="RTR,OSPF", help="comma-separated scheme names"
    )
    soak.add_argument(
        "--model", default="gravity", help="traffic model: gravity, uniform, hotspot"
    )
    soak.add_argument(
        "--flows", type=int, default=100_000, help="synthetic flow population"
    )
    soak.add_argument(
        "--demand", type=float, default=1000.0, help="aggregate matrix demand"
    )
    soak.add_argument(
        "--checkpoint-every",
        type=int,
        default=4,
        help="windows per checkpointed batch",
    )
    soak.add_argument("--workers", type=int, default=2, help="shard pool size")
    soak.add_argument(
        "--run-dir",
        help="run directory (default: obs runs dir / soak-<config-hash>)",
    )
    soak.set_defaults(func=cmd_soak)

    obs_p = sub.add_parser("obs", help="observability artifacts")
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="render the report of an instrumented run"
    )
    obs_report.add_argument(
        "run_dir",
        nargs="?",
        help="run directory (default: latest under REPRO_OBS_DIR or ./obs-runs)",
    )
    obs_report.add_argument("--top", type=int, default=15, help="counters to show")
    obs_report.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report document instead of text",
    )
    obs_p.set_defaults(func=cmd_obs)

    query = sub.add_parser(
        "query", help="query the persistent run store (repro.store)"
    )
    query.add_argument(
        "--store",
        help="store path (default: REPRO_STORE, else <obs run dir>/store.sqlite)",
    )
    query_sub = query.add_subparsers(dest="query_command", required=True)

    q_ingest = query_sub.add_parser(
        "ingest", help="ingest run dirs / BENCH json / results dirs"
    )
    q_ingest.add_argument(
        "paths",
        nargs="+",
        help="obs-runs base or run dir, BENCH_*.json, or benchmarks/results dir",
    )

    q_list = query_sub.add_parser("list", help="list stored runs or bench rows")
    q_list.add_argument(
        "--kind", choices=["runs", "bench", "artifacts"], default="runs"
    )
    q_list.add_argument("--benchmark", help="filter by run/bench name")
    q_list.add_argument("--scheme", help="filter runs by configured scheme")
    q_list.add_argument("--topology", help="filter runs by topology id")
    q_list.add_argument("--config-hash", help="filter by config hash")
    q_list.add_argument(
        "--format", choices=["table", "csv", "json"], default="table"
    )

    q_show = query_sub.add_parser("show", help="full JSON document of one run")
    q_show.add_argument(
        "ref",
        nargs="?",
        help="run id, config hash, or run/bench name (latest match wins)",
    )
    q_show.add_argument(
        "--bench-file",
        help="reconstruct a whole BENCH_*.json from latest stored rows",
    )

    q_diff = query_sub.add_parser("diff", help="compare two stored runs")
    q_diff.add_argument("run_a")
    q_diff.add_argument("run_b")
    q_diff.add_argument("--format", choices=["table", "json"], default="table")

    q_trend = query_sub.add_parser(
        "trend", help="per-config time series of one metric"
    )
    q_trend.add_argument(
        "metric",
        help="bench metric, dotted for nested (wall_s, span_ms.eval.sweep)",
    )
    q_trend.add_argument("--benchmark", help="restrict to one bench name")
    q_trend.add_argument("--run", help="restrict to one stored run name")
    q_trend.add_argument(
        "--format", choices=["table", "csv", "json"], default="table"
    )

    q_regress = query_sub.add_parser(
        "regress", help="latest stored rows vs pinned BENCH baselines"
    )
    q_regress.add_argument(
        "--baseline",
        action="append",
        metavar="FILE",
        help="baseline BENCH json (repeatable; default benchmarks/BENCH_*.json)",
    )
    q_regress.add_argument(
        "--threshold",
        action="append",
        metavar="METRIC=FRACTION",
        help="override a relative-change threshold (e.g. wall_s=0.5)",
    )
    q_regress.add_argument("--benchmark", help="gate only this bench name")
    q_regress.add_argument(
        "--strict",
        action="store_true",
        help="also fail when a baseline entry has no stored row (skip)",
    )
    query.set_defaults(func=cmd_query)

    render = sub.add_parser("render", help="render a topology as SVG")
    render.add_argument("--topology", default="AS1239")
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("--failure", action="store_true", help="add a random failure")
    render.add_argument("--cx", type=float)
    render.add_argument("--cy", type=float)
    render.add_argument("--radius", type=float)
    render.add_argument("--source", type=int)
    render.add_argument("--destination", type=int)
    render.add_argument("--no-labels", action="store_true")
    render.add_argument("-o", "--output", default="topology.svg")
    render.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    level = args.log or os.environ.get("REPRO_LOG")
    if level:
        obs.configure_logging(level)
    try:
        return args.func(args)
    except ReproError as exc:
        # Safety net: any repro-domain failure a handler did not turn
        # into a message itself still exits 2 with one line, never a
        # traceback.
        return _usage_error(exc)
    except BrokenPipeError:
        # Output was piped to a consumer that closed early (e.g. head);
        # suppress the traceback and let the pipe's verdict stand.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
