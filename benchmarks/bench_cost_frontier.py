"""Replication vs reducer-input budget: the BSP cost frontier.

Standalone (no pytest-benchmark) so CI can gate on it cheaply::

    PYTHONPATH=src python benchmarks/bench_cost_frontier.py --quick

Sweeps MR-GPMRS's reducer count and folds each run's job stats into a
:class:`~repro.bsp.cost.CostReport`: the max-reducer-input budget
``q``, the replication rate ``r``, the per-superstep h-relation, and
Afrati et al.'s all-pairs reference bound ``r >= n/q``. The checks
that make the rounds/replication trade-off (Lemma 2 / Figure 6)
testable rather than assumed:

* the skyline at every sweep point is byte-identical to an
  independent serial run's — measuring the cost never changes results;
* replication is non-increasing as the reducer-input budget ``q``
  grows — a bigger memory bound needs fewer delivered copies;
* every replication rate is >= 1 — each source record is delivered at
  least once;
* makespan shape: serial, thread-pool and process-pool engines agree
  on the simulated makespan, the skyline and the cost report, and the
  barrier view of the schedule is at least the plain makespan.

Writes ``BENCH_cost.json`` at the repo root; exits non-zero if any
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro import skyline
from repro.bsp import CostReport, afrati_allpairs_bound
from repro.data import generate
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.parallel import ProcessPoolEngine, ThreadPoolEngine
from repro.mapreduce.trace import schedule_spans


def _barrier_makespan(cluster, stats_jobs) -> float:
    """Makespan of the barrier view: where its last span ends."""
    spans = schedule_spans(cluster, stats_jobs, barriers=True)
    return max((span.end_s for span in spans), default=0.0)


def _run_point(data, cluster, num_reducers, tpp):
    result = skyline(
        data,
        algorithm="mr-gpmrs",
        cluster=cluster,
        num_reducers=num_reducers,
        tpp=tpp,
    )
    cost = CostReport.from_jobs(result.stats.jobs)
    row = {
        "num_reducers": num_reducers,
        "makespan_s": round(result.runtime_s, 4),
        "bsp_makespan_s": round(
            _barrier_makespan(cluster, result.stats.jobs), 4
        ),
        "skyline_size": len(result),
        "indices": result.indices.tolist(),
        "rounds": cost.rounds,
        "supersteps": cost.num_supersteps,
        "barriers": cost.barriers,
        "source_records": cost.source_records,
        "delivered_records": cost.delivered_records,
        "delivered_bytes": cost.delivered_bytes,
        "max_reducer_input_records": cost.max_reducer_input_records,
        "replication_rate": round(cost.replication_rate, 6),
        "h_records": [step.h_records for step in cost.supersteps],
        "allpairs_bound": round(
            afrati_allpairs_bound(
                cost.source_records, cost.max_reducer_input_records
            ),
            6,
        ),
    }
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small workload")
    parser.add_argument("--cardinality", type=int, default=None)
    parser.add_argument("--dimensionality", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_cost.json",
        ),
    )
    args = parser.parse_args(argv)

    cardinality = args.cardinality or (4_000 if args.quick else 20_000)
    data = generate(
        "anticorrelated", cardinality, args.dimensionality, seed=args.seed
    )
    cluster = SimulatedCluster(num_nodes=13)
    tpp = max(4, min(512, cardinality // (2 ** args.dimensionality)))
    print(
        f"workload: anticorrelated {cardinality} x {args.dimensionality}, "
        f"mr-gpmrs, 13 simulated nodes"
    )

    failures = []
    serial = skyline(data, algorithm="mr-gpmrs", cluster=cluster,
                     num_reducers=13, tpp=tpp)
    serial_indices_13 = serial.indices.tolist()
    serial_cost = CostReport.from_jobs(serial.stats.jobs).as_dict()

    reducer_sweep = [1, 2, 4, 8, 13]
    sweep = []
    print("replication vs reducer-input budget:")
    for nr in reducer_sweep:
        row = _run_point(data, cluster, nr, tpp)
        reference = skyline(
            data, algorithm="mr-gpmrs", cluster=cluster,
            num_reducers=nr, tpp=tpp,
        )
        if row["indices"] != reference.indices.tolist():
            failures.append(
                f"skyline differs between serial runs at {nr} reducers"
            )
        sweep.append(row)
        print(
            f"  reducers {nr:3d}: q={row['max_reducer_input_records']:6d} "
            f"r={row['replication_rate']:.4f} "
            f"(all-pairs bound {row['allpairs_bound']:.4f}), "
            f"{row['rounds']} rounds / {row['supersteps']} supersteps"
        )

    for row in sweep:
        if row["replication_rate"] < 1.0 - 1e-9:
            failures.append(
                f"replication rate < 1 at {row['num_reducers']} reducers: "
                f"{row['replication_rate']}"
            )
        if row["bsp_makespan_s"] < row["makespan_s"] - 1e-9:
            failures.append(
                f"barrier-inclusive makespan below plain makespan at "
                f"{row['num_reducers']} reducers"
            )
    by_budget = sorted(
        sweep, key=lambda row: row["max_reducer_input_records"]
    )
    rates = [row["replication_rate"] for row in by_budget]
    if any(b > a + 1e-9 for a, b in zip(rates, rates[1:])):
        failures.append(
            "replication rate not non-increasing as the reducer-input "
            f"budget grows: {rates} (q ascending)"
        )

    print("makespan shape across engines (13 reducers):")
    engine_rows = {}
    for name, factory in (
        ("serial", lambda: None),
        ("threads", lambda: ThreadPoolEngine(max_workers=4)),
        ("processes", lambda: ProcessPoolEngine(max_workers=2)),
    ):
        result = skyline(
            data, algorithm="mr-gpmrs", cluster=cluster,
            engine=factory(), num_reducers=13, tpp=tpp,
        )
        engine_rows[name] = {
            "makespan_s": round(result.runtime_s, 4),
            "skyline_size": len(result),
        }
        print(f"  {name:10s} makespan {result.runtime_s:8.3f}s")
        if result.indices.tolist() != serial_indices_13:
            failures.append(f"{name} engine changed the skyline")
        if abs(result.runtime_s - serial.runtime_s) > 1e-9:
            failures.append(
                f"{name} engine changed the simulated makespan "
                f"({serial.runtime_s}s -> {result.runtime_s}s)"
            )
        if CostReport.from_jobs(result.stats.jobs).as_dict() != serial_cost:
            failures.append(f"{name} engine changed the cost report")

    for row in sweep:
        row.pop("indices")
    payload = {
        "workload": {
            "distribution": "anticorrelated",
            "cardinality": cardinality,
            "dimensionality": args.dimensionality,
            "algorithm": "mr-gpmrs",
            "seed": args.seed,
            "tpp": tpp,
        },
        "reducer_sweep": sweep,
        "engine_makespans": engine_rows,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"written: {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all cost-frontier checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
