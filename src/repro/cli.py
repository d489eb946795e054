"""Command-line interface: ``repro-skyline``.

Subcommands
-----------
``compute``     — compute a skyline of a CSV/NPY file or a generated
                  synthetic workload, with any registered algorithm;
                  ``--trace-out`` exports a Perfetto-loadable Chrome
                  trace, ``--report-out`` a machine-readable run report.
``experiment``  — reproduce one of the paper's figures (or an
                  ablation) and print its series.
``report``      — pretty-print one run report, or diff two.
``check``       — run the determinism / MapReduce-purity lint
                  (see docs/static_analysis.md); the CI gate is
                  ``repro-skyline check src``.
``serve``       — replay a seeded serving workload through the
                  incremental skyline frontend (``--compare`` also runs
                  the recompute-per-query baseline and prints the
                  throughput ratio).
``list``        — list algorithms, experiments and serve workloads
                  (``--counters`` adds the documented
                  counter/histogram vocabulary).

Examples::

    repro-skyline compute --distribution anticorrelated -c 10000 -d 5 \
        --algorithm mr-gpmrs
    repro-skyline compute --input hotels.csv --prefs min,min,max
    repro-skyline compute --algo mr-gpmrs --trace-out t.json --report-out r.json
    repro-skyline report r.json
    repro-skyline report a.json b.json
    repro-skyline experiment fig7 --scale 0.005 --verbose
    repro-skyline serve mixed-anticorrelated --compare
    repro-skyline check src --format json
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional


from repro import available_algorithms, skyline
from repro.bench.experiments import EXPERIMENTS
from repro.bsp import CostReport
from repro.data import generate, load_csv, load_npy
from repro.errors import ReproError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.faults import FaultPlan, RetryPolicy

#: The engine registry: name -> (module, class name, execution model,
#: shared memory, fault injection). ``repro-skyline list --engines``
#: prints it, docs/architecture.md carries the same matrix,
#: ``--engine`` everywhere accepts exactly these names, and
#: :func:`_make_engine` builds from it.
ENGINE_REGISTRY = (
    (
        "serial",
        "repro.mapreduce.engine",
        "SerialEngine",
        "sequential tasks, modelled parallelism",
        "no",
        "yes",
    ),
    (
        "threads",
        "repro.mapreduce.parallel",
        "ThreadPoolEngine",
        "concurrent tasks in one process",
        "no",
        "yes",
    ),
    (
        "processes",
        "repro.mapreduce.parallel",
        "ProcessPoolEngine",
        "worker processes, zero-copy blocks",
        "yes",
        "yes",
    ),
    (
        "contract",
        "repro.check.contracts",
        "ContractCheckingEngine",
        "serial + purity-contract certificate",
        "no",
        "yes",
    ),
)

ENGINE_CHOICES = [name for name, *_ in ENGINE_REGISTRY]


def _add_barriers_arg(parser) -> None:
    """The BSP view shared by ``compute`` and ``gantt``."""
    parser.add_argument(
        "--barriers",
        action="store_true",
        help="show the simulated schedule as BSP supersteps (barriers "
        "'=' distinct from the shuffle's h-relation '~') and print the "
        "rounds/replication cost line",
    )


def _add_fault_args(parser) -> None:
    """Fault-injection flags shared by ``compute`` and ``gantt``."""
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the deterministic fault schedule",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-attempt task failure probability (0 disables injection)",
    )
    parser.add_argument(
        "--slow-rate",
        type=float,
        default=0.0,
        help="per-attempt straggler probability",
    )
    parser.add_argument(
        "--speculative",
        action="store_true",
        help="launch backup copies of straggler tasks (first finisher wins)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="task retry budget (default: 1, or enough to survive the "
        "fault plan when one is active)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-skyline",
        description="Skyline computation in (simulated) MapReduce — "
        "EDBT 2014 reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute one skyline")
    source = compute.add_mutually_exclusive_group()
    source.add_argument("--input", help="CSV (with header) or .npy file")
    source.add_argument(
        "--distribution",
        choices=["independent", "correlated", "anticorrelated", "clustered"],
        help="generate a synthetic workload instead of reading a file",
    )
    compute.add_argument("-c", "--cardinality", type=int, default=10_000)
    compute.add_argument("-d", "--dimensionality", type=int, default=4)
    compute.add_argument("--seed", type=int, default=0)
    compute.add_argument(
        "--algorithm", default="mr-gpmrs", choices=available_algorithms()
    )
    compute.add_argument(
        "--prefs",
        help="comma-separated per-dimension preference, e.g. min,max,min",
    )
    compute.add_argument("--num-reducers", type=int, default=None)
    compute.add_argument("--ppd", type=int, default=None)
    compute.add_argument("--nodes", type=int, default=13)
    compute.add_argument(
        "--engine",
        default="serial",
        choices=ENGINE_CHOICES,
        help="execution engine for the MapReduce runtime ('contract' "
        "runs serially while asserting purity/determinism contracts; "
        "see `repro-skyline list --engines`)",
    )
    _add_barriers_arg(compute)
    compute.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the threads/processes engines",
    )
    compute.add_argument(
        "--show", type=int, default=10, help="print the first N skyline rows"
    )
    compute.add_argument(
        "--trace-out",
        help="write a Chrome trace-event JSON (Perfetto/chrome://tracing) "
        "with the simulated schedule and the measured wall-clock spans",
    )
    compute.add_argument(
        "--report-out",
        help="write a machine-readable run report (JSON); see "
        "docs/observability.md for the format",
    )
    _add_fault_args(compute)

    experiment = sub.add_parser(
        "experiment", help="reproduce a figure of the paper"
    )
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", type=float, default=0.01)
    experiment.add_argument("--quick", action="store_true")
    experiment.add_argument("--include-dnf", action="store_true")
    experiment.add_argument("--verbose", action="store_true")
    experiment.add_argument("--nodes", type=int, default=13)
    experiment.add_argument("--csv", help="also write the series as CSV")
    experiment.add_argument(
        "--plot", action="store_true", help="render panels as ASCII charts"
    )
    experiment.add_argument(
        "--logy", action="store_true", help="log y-axis for --plot"
    )

    compare = sub.add_parser(
        "compare", help="run several algorithms on one workload"
    )
    compare.add_argument(
        "--algorithms",
        default="mr-gpsrs,mr-gpmrs,mr-bnl,mr-angle",
        help="comma-separated registry names",
    )
    compare.add_argument(
        "--distribution",
        default="anticorrelated",
        choices=["independent", "correlated", "anticorrelated", "clustered"],
    )
    compare.add_argument("-c", "--cardinality", type=int, default=10_000)
    compare.add_argument("-d", "--dimensionality", type=int, default=5)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--nodes", type=int, default=13)

    gantt = sub.add_parser(
        "gantt", help="render the simulated schedule of one run"
    )
    gantt.add_argument(
        "--algorithm", default="mr-gpmrs", choices=available_algorithms()
    )
    gantt.add_argument(
        "--distribution",
        default="anticorrelated",
        choices=["independent", "correlated", "anticorrelated", "clustered"],
    )
    gantt.add_argument("-c", "--cardinality", type=int, default=10_000)
    gantt.add_argument("-d", "--dimensionality", type=int, default=5)
    gantt.add_argument("--seed", type=int, default=0)
    gantt.add_argument("--nodes", type=int, default=13)
    gantt.add_argument("--width", type=int, default=64)
    gantt.add_argument("--engine", default="serial", choices=ENGINE_CHOICES)
    _add_barriers_arg(gantt)
    gantt.add_argument("--workers", type=int, default=None)
    _add_fault_args(gantt)

    report = sub.add_parser(
        "report", help="pretty-print one run report, or diff two"
    )
    report.add_argument(
        "files",
        nargs="+",
        help="one report to render, or two reports to diff "
        "(wall-clock differences are ignored)",
    )

    check = sub.add_parser(
        "check",
        help="lint for determinism / MapReduce-purity violations",
        description="Static analysis gate: REP001-REP007 always, "
        "REP008-REP011 with --deep (see docs/static_analysis.md). "
        "Exit 0 means no violations and no unused suppression pragmas.",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    check.add_argument(
        "--deep",
        action="store_true",
        help="also run the interprocedural dataflow analyses "
        "(resource lifecycles, lock discipline, fleet RPC "
        "conformance, call-graph purity)",
    )
    check.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )

    from repro.serve.workloads import SERVE_WORKLOADS

    serve = sub.add_parser(
        "serve",
        help="replay a serving workload through the incremental frontend",
    )
    serve.add_argument(
        "workload",
        nargs="?",
        default="read-heavy",
        choices=sorted(SERVE_WORKLOADS),
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--policy",
        default="delta",
        choices=["delta", "recompute"],
        help="'delta' serves from the maintained index; 'recompute' is "
        "the recompute-per-query baseline",
    )
    serve.add_argument(
        "--compare",
        action="store_true",
        help="run both policies and print the throughput ratio",
    )
    serve.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale the workload's cardinality and op count",
    )
    serve.add_argument(
        "--engine",
        default="serial",
        choices=ENGINE_CHOICES,
        help="engine for staleness-budget batch refreshes",
    )
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="override the workload's tenant count (>1 attributes ops "
        "to Zipf-popular tenants under weighted-fair admission)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve from a sharded index (independent reducer groups) "
        "with a batching router frontend",
    )
    serve.add_argument(
        "--fleet",
        action="store_true",
        help="serve the shards from real worker processes "
        "(requires --shards; implied by --trace-out with --shards > 1 "
        "so the trace shows genuine multi-process spans)",
    )
    serve.add_argument(
        "--trace-out",
        help="export the serving-path trace (frontend, per-shard, and "
        "fleet-worker spans stitched by request id) as Chrome "
        "trace-event JSON, loadable in Perfetto",
    )
    serve.add_argument(
        "--report-out",
        help="write the machine-readable serve run report (counters, "
        "latency histograms, SLO burn rates, flight-recorder dumps)",
    )

    lister = sub.add_parser(
        "list", help="list algorithms, engines, experiments and workloads"
    )
    lister.add_argument(
        "--counters",
        action="store_true",
        help="also list the documented counter/histogram/gauge vocabulary",
    )
    lister.add_argument(
        "--engines",
        action="store_true",
        help="also list the engine registry (execution model, "
        "shared-memory and fault-injection support)",
    )
    return parser


def _fault_plan(args) -> Optional[FaultPlan]:
    if args.fault_rate <= 0 and args.slow_rate <= 0:
        return None
    return FaultPlan(
        seed=args.fault_seed,
        fail_rate=args.fault_rate,
        slow_rate=args.slow_rate,
    )


def _make_engine(name: str, workers: Optional[int], args=None, bus=None):
    """Build engine ``name`` from :data:`ENGINE_REGISTRY`.

    ``args`` carries the fault flags of ``compute`` and ``gantt``
    (``serve`` has none). A plain serial run returns ``None``: the
    algorithm's default SerialEngine.
    """
    kwargs = {"bus": bus}
    customised = bus is not None
    if args is not None:
        faults = _fault_plan(args)
        max_attempts = args.max_attempts
        if max_attempts is None:
            # Hadoop's default budget, stretched if the plan needs more.
            max_attempts = max(4, faults.min_attempts()) if faults else 1
        kwargs.update(
            retry=RetryPolicy(max_attempts=max_attempts),
            faults=faults,
            speculative=args.speculative,
        )
        customised = bool(
            customised
            or faults is not None
            or args.speculative
            or args.max_attempts
        )
    if name == "serial" and not customised:
        return None
    module, cls = next(
        (module, cls) for key, module, cls, *_ in ENGINE_REGISTRY if key == name
    )
    if name in ("threads", "processes"):
        kwargs["max_workers"] = workers
    return getattr(importlib.import_module(module), cls)(**kwargs)


def _cmd_compute(args) -> int:
    if args.input:
        if args.input.endswith(".npy"):
            data = load_npy(args.input)
        else:
            data = load_csv(args.input).values
    else:
        data = generate(
            args.distribution or "independent",
            args.cardinality,
            args.dimensionality,
            seed=args.seed,
        )
    prefs = args.prefs.split(",") if args.prefs else None
    options = {}
    if args.num_reducers is not None and args.algorithm in (
        "mr-gpmrs",
        "mr-bitmap",
    ):
        options["num_reducers"] = args.num_reducers
    if args.ppd is not None and args.algorithm in ("mr-gpsrs", "mr-gpmrs"):
        options["ppd"] = args.ppd
    cluster = SimulatedCluster(num_nodes=args.nodes)
    observing = bool(args.trace_out or args.report_out)
    bus = tracer = collector = None
    if observing:
        from repro.obs import EventBus, MetricsCollector, SpanTracer

        bus = EventBus()
        tracer = bus.subscribe(SpanTracer())
        collector = bus.subscribe(MetricsCollector())
    engine = _make_engine(args.engine, args.workers, args, bus=bus)
    result = skyline(
        data,
        algorithm=args.algorithm,
        prefs=prefs,
        cluster=cluster,
        engine=engine,
        **options,
    )
    print(
        f"{args.algorithm}: skyline of {data.shape[0]} x {data.shape[1]} "
        f"dataset has {len(result)} tuples "
        f"({100 * len(result) / max(1, data.shape[0]):.2f}%)"
    )
    print(
        f"simulated runtime {result.runtime_s:.3f}s on {args.nodes} nodes, "
        f"wall {result.stats.wall_s:.3f}s"
    )
    for i in range(min(args.show, len(result))):
        row = ", ".join(f"{v:.4g}" for v in result.values[i])
        print(f"  #{result.indices[i]}: [{row}]")
    if len(result) > args.show:
        print(f"  ... and {len(result) - args.show} more")
    if args.barriers:
        print(f"cost: {CostReport.from_jobs(result.stats.jobs).describe()}")
    if args.trace_out:
        from repro.mapreduce.trace import schedule_spans
        from repro.obs import write_chrome_trace

        write_chrome_trace(
            args.trace_out,
            {
                "simulated": schedule_spans(
                    cluster, result.stats.jobs, barriers=args.barriers
                ),
                "wall": tracer.wall_spans(),
            },
        )
        print(f"trace written to {args.trace_out} (open in Perfetto)")
    if args.report_out:
        from repro.obs import build_report, write_report

        report = build_report(
            result,
            data,
            cluster,
            engine=engine,
            collector=collector,
            config={
                "source": args.input or (args.distribution or "independent"),
                "seed": args.seed,
                "prefs": args.prefs,
            },
        )
        write_report(args.report_out, report)
        print(f"report written to {args.report_out}")
    return 0


def _cmd_experiment(args) -> int:
    runner = EXPERIMENTS[args.name]
    kwargs = dict(
        scale=args.scale,
        cluster=SimulatedCluster(num_nodes=args.nodes),
        verbose=args.verbose,
    )
    if args.name.startswith("fig"):
        kwargs["quick"] = args.quick
        kwargs["include_dnf"] = args.include_dnf
    report = runner(**kwargs)
    print(report.render())
    if args.plot:
        from repro.bench.asciiplot import plot_panel

        for panel in report.panels:
            try:
                print()
                print(plot_panel(panel, logy=args.logy))
            except (ReproError, ValueError, ArithmeticError, LookupError) as exc:
                # Degenerate series (empty, non-positive on --logy,
                # ragged) — plotting is cosmetic, the report already
                # printed. Anything else is a real bug and propagates.
                print(f"(cannot plot panel {panel.title!r}: {exc})")
    from repro.bench.expectations import evaluate_report, render_verdicts

    verdicts = evaluate_report(args.name, report)
    if verdicts:
        print("\npaper-claim verdicts:")
        print(render_verdicts(verdicts))
    if args.csv:
        report.to_csv(args.csv)
        print(f"\nseries written to {args.csv}")
    return 0


def _cmd_compare(args) -> int:
    from repro.bench.reporting import format_table

    data = generate(
        args.distribution,
        args.cardinality,
        args.dimensionality,
        seed=args.seed,
    )
    cluster = SimulatedCluster(num_nodes=args.nodes)
    rows = []
    reference = None
    for name in args.algorithms.split(","):
        name = name.strip()
        result = skyline(data, algorithm=name, cluster=cluster)
        ids = frozenset(result.indices.tolist())
        if reference is None:
            reference = ids
        rows.append(
            [
                name,
                round(result.runtime_s, 3),
                round(result.stats.wall_s, 3),
                len(result),
                "yes" if ids == reference else "NO",
            ]
        )
    print(
        format_table(
            ["algorithm", "sim_s", "wall_s", "skyline", "agrees"],
            rows,
            title=(
                f"{args.distribution}, {args.cardinality} x "
                f"{args.dimensionality}, {args.nodes} nodes"
            ),
        )
    )
    return 0


def _cmd_gantt(args) -> int:
    from repro.mapreduce.trace import render_pipeline_gantt

    data = generate(
        args.distribution,
        args.cardinality,
        args.dimensionality,
        seed=args.seed,
    )
    cluster = SimulatedCluster(num_nodes=args.nodes)
    engine = _make_engine(args.engine, args.workers, args)
    result = skyline(
        data,
        algorithm=args.algorithm,
        cluster=cluster,
        engine=engine,
    )
    print(
        f"{args.algorithm}: skyline {len(result)}, "
        f"simulated {result.runtime_s:.3f}s\n"
    )
    print(
        render_pipeline_gantt(
            cluster,
            result.stats.jobs,
            width=args.width,
            barriers=args.barriers,
        )
    )
    if args.barriers:
        print(f"\ncost: {CostReport.from_jobs(result.stats.jobs).describe()}")
    return 0


def _cmd_report(args) -> int:
    from repro.obs import diff_reports, load_report, render_report

    if len(args.files) == 1:
        print(render_report(load_report(args.files[0])))
        return 0
    if len(args.files) != 2:
        print("error: report takes one or two files", file=sys.stderr)
        return 2
    first, second = (load_report(path) for path in args.files)
    differences = diff_reports(first, second)
    if not differences:
        print(
            f"{args.files[0]} and {args.files[1]} are identical "
            "(wall-clock fields ignored)"
        )
        return 0
    print(f"{len(differences)} difference(s):")
    for line in differences:
        print(f"  {line}")
    return 1


def _cmd_check(args) -> int:
    from repro.check import runner

    if args.list_rules:
        print(runner.list_rules())
        return 0
    try:
        violations = runner.check_paths(args.paths, deep=args.deep)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(runner.render_json(violations))
    else:
        print(runner.render_text(violations))
    return 1 if violations else 0


def _render_serve_report(report: dict) -> str:
    ops = report["ops"]
    shards = report.get("shards", 1)
    sharded = f", shards={shards}" if shards > 1 else ""
    lines = [
        f"serve workload {report['workload']!r} "
        f"(policy={report['policy']}, seed={report['seed']}{sharded})",
        f"  ops: {ops['query']} queries / {ops['insert']} inserts / "
        f"{ops['delete']} deletes",
        f"  served {report['queries_served']}, "
        f"shed {report['queries_shed']}, "
        f"timed out {report['queries_timed_out']}",
        f"  cache hit rate {100 * report['cache_hit_rate']:.1f}%",
        f"  latency p50 {1e6 * report['p50_latency_s']:.1f}us, "
        f"p99 {1e6 * report['p99_latency_s']:.1f}us",
        f"  throughput {report['queries_per_s']:.0f} queries/s "
        f"over {report['makespan_s']:.4f} virtual seconds",
        f"  final skyline {report['final_skyline_size']} tuples, "
        f"epoch {report['final_epoch']}, "
        f"batch refreshes {report['batch_refreshes']}",
    ]
    for tenant, stats in sorted(report.get("tenants", {}).items()):
        lines.append(
            f"  tenant {tenant}: {stats['served']}/{stats['submitted']} "
            f"served, shed {stats['shed']}, "
            f"timed out {stats['timed_out']}, "
            f"p99 {1e6 * stats['p99_latency_s']:.1f}us"
        )
    return "\n".join(lines)


def _cmd_serve(args) -> int:
    import time

    from repro.serve.workloads import resolve_workload, run_workload

    engine = _make_engine(args.engine, args.workers)
    fleet = bool(
        args.fleet
        or (args.trace_out and args.shards is not None and args.shards > 1)
    )
    observing = bool(args.trace_out or args.report_out or fleet)
    bus = tracer = monitor = collector = None
    artifacts = {} if observing else None
    workload = resolve_workload(
        args.workload, scale=args.scale, tenants=args.tenants
    )
    if observing:
        from repro.obs import (
            EventBus,
            MetricsCollector,
            ServeTracer,
            SLOMonitor,
            default_objectives,
            default_window_s,
        )

        bus = EventBus()
        collector = bus.subscribe(MetricsCollector())
        monitor = bus.subscribe(
            SLOMonitor(
                default_objectives(workload),
                window_s=default_window_s(workload),
            )
        )
        tracer = ServeTracer()
    wall0 = time.perf_counter()
    report, _ = run_workload(
        workload,
        seed=args.seed,
        policy=args.policy,
        engine=engine,
        shards=args.shards,
        bus=bus,
        tracer=tracer,
        fleet=fleet,
        artifacts=artifacts,
    )
    wall_s = time.perf_counter() - wall0
    print(_render_serve_report(report))
    if monitor is not None:
        monitor.finalize()
        monitor.ingest_spans(tracer.serve_spans())
        monitor.ingest_spans(tracer.fleet_spans())
        summary = monitor.summary()
        for objective in summary["objectives"]:
            tripped = (
                f", {objective['tripped_windows']} window(s) TRIPPED"
                if objective["tripped_windows"]
                else ""
            )
            print(
                f"  slo {objective['name']}: worst burn "
                f"{objective['worst_burn']:.2f}x{tripped}"
            )
        dumps = summary["flight_recorder"]["dumps"]
        if dumps:
            print(f"  flight recorder: {len(dumps)} dump(s)")
    if args.trace_out:
        from repro.obs import write_chrome_trace

        write_chrome_trace(args.trace_out, tracer.clocks())
        print(f"trace written to {args.trace_out} (open in Perfetto)")
    if args.report_out:
        from repro.obs import build_serve_run_report, write_report

        run_report = build_serve_run_report(
            artifacts["stream"],
            report,
            artifacts["frontend"],
            skyline=artifacts["final_skyline"],
            monitor=monitor,
            collector=collector,
            config={
                "workload": workload.name,
                "seed": args.seed,
                "policy": args.policy,
                "shards": args.shards or 1,
                "fleet": fleet,
            },
            wall_s=wall_s,
        )
        write_report(args.report_out, run_report)
        print(f"report written to {args.report_out}")
    if args.compare:
        other_policy = "recompute" if args.policy == "delta" else "delta"
        other, _ = run_workload(
            args.workload,
            seed=args.seed,
            policy=other_policy,
            engine=engine,
            scale=args.scale,
            shards=args.shards,
            tenants=args.tenants,
        )
        print()
        print(_render_serve_report(other))
        delta_qps = (
            report if report["policy"] == "delta" else other
        )["queries_per_s"]
        recompute_qps = (
            other if report["policy"] == "delta" else report
        )["queries_per_s"]
        ratio = delta_qps / max(recompute_qps, 1e-12)
        print(
            f"\ndelta maintenance served {ratio:.1f}x more queries per "
            "virtual second than recompute-per-query"
        )
    return 0


def _cmd_list(args) -> int:
    from repro.serve.workloads import SERVE_WORKLOADS

    print("algorithms:")
    for name in available_algorithms():
        print(f"  {name}")
    if getattr(args, "engines", False):
        print("engines:")
        header = f"  {'name':10s} {'class':24s} {'shm':4s} {'faults':7s} execution model"
        print(header)
        for name, _module, cls, model, shm, faults in ENGINE_REGISTRY:
            print(f"  {name:10s} {cls:24s} {shm:4s} {faults:7s} {model}")
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    print("serve workloads:")
    for name in sorted(SERVE_WORKLOADS):
        workload = SERVE_WORKLOADS[name]
        suffix = ""
        if workload.tenants > 1:
            suffix = (
                f" [tenants={workload.tenants}, "
                f"shape={workload.arrival_shape}, "
                f"quota={workload.tenant_quota:g}]"
            )
        print(f"  {name:24s} {workload.description}{suffix}")
    if getattr(args, "counters", False):
        from repro.obs import documented_metrics

        scopes = sorted({spec.scope for spec in documented_metrics()})
        for scope in scopes:
            print(f"{scope} metrics:")
            for spec in documented_metrics(scope):
                print(
                    f"  {spec.name:36s} {spec.kind:9s} [{spec.unit}] "
                    f"{spec.description}"
                )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "gantt":
            return _cmd_gantt(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "serve":
            return _cmd_serve(args)
        return _cmd_list(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
