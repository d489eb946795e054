"""The traced run: per-layer metrics from spans around public functions.

The spans are recorded from this file, not from the program: each
traced function is replaced, for the duration of one traced unit of
work, by a wrapper that records ``(name, start, end, parent)``; modules
that imported the function by name get the wrapper too. A span's self
time is its duration minus that of its child spans. Each unit of work
(one ``skyline()`` call, or building the index and replaying one serve
stream) runs once untraced and once traced, interleaved with the host
reference, so the run also reports what tracing costs. Per-layer
figures are per unit of work and the median over the traced units; the
exact counts must be the same in every unit.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import host
import workloads

from repro.mapreduce import counters as counter_names
from repro.serve.workloads import SERVE_WORKLOADS, OpStream, serve_stream

#: Traced units per run, each beside an untraced twin.
REPS = 5

#: Counts that must repeat exactly in every traced unit (and every run
#: with the same seed).
EXACT = (
    counter_names.TUPLE_COMPARES,
    counter_names.PARTITION_COMPARES,
    counter_names.SHUFFLE_BYTES,
    "pipeline.skyline_size",
    "serve.index.batch_refresh.count",
    "serve.delta_repairs",
)

Count = Optional[Callable[[Dict, tuple, object], None]]


def _count_pairs(counts, args, out):
    counts["dominance.dominated_mask.pairs"] += len(args[0]) * len(args[1])


def _count_rows(counts, args, out):
    counts["pointset.local_skyline.rows_in"] += len(args[0])
    counts["pointset.local_skyline.rows_out"] += len(out)


def _count_job(counts, args, out):
    stats = out.stats
    maps, reduces = stats.map_durations(), stats.reduce_durations()
    counts["mapreduce.map_task.ms_sum"] += 1e3 * sum(maps)
    counts["mapreduce.reduce_task.ms_sum"] += 1e3 * sum(reduces)
    for name, values in (("map_task", maps), ("reduce_task", reduces)):
        key = f"mapreduce.{name}.ms_max"
        counts[key] = max([counts[key]] + [1e3 * v for v in values])
    counts[counter_names.SHUFFLE_BYTES] += stats.shuffle_bytes
    counts[counter_names.RECORDS_IN] += stats.counters.get(counter_names.RECORDS_IN)
    counts["mr.max_reducer_records_in"] = max(
        [counts["mr.max_reducer_records_in"]]
        + [t.records_in for t in stats.reduce_tasks]
    )


def _count_pipeline(counts, args, out):
    stats = out.stats
    counts["pipeline.skyline_size"] += len(out)
    counts["pipeline.simulated_s"] += stats.simulated_s or 0.0
    merged = stats.counters()
    for name in (
        counter_names.TUPLE_COMPARES,
        counter_names.PARTITION_COMPARES,
        counter_names.TUPLES_PRUNED_BY_BITSTRING,
    ):
        counts[name] += merged.get(name)


#: (owner, attribute, span name, count hook) per traced entry point,
#: grouped by layer. An owner ``module:Class`` patches a method.
DOMINANCE = "repro.core.dominance"
POINTSET = "repro.core.pointset:PointSet"
COMMON = "repro.algorithms.common"
INDEX = "repro.serve.index:SkylineIndex"
POINTS = (
    (DOMINANCE, "dominated_mask", "dominance.dominated_mask", _count_pairs),
    (DOMINANCE, "point_dominated_by", "dominance.point_dominated_by", None),
    (DOMINANCE, "dominated_by_point", "dominance.dominated_by_point", None),
    (POINTSET, "local_skyline", "pointset.local_skyline", _count_rows),
    (POINTSET, "remove_dominated_by", "pointset.remove_dominated_by", None),
    (COMMON, "partition_local_skylines", "common.partition_local_skylines", None),
    (COMMON, "compare_partitions_within", "common.compare_partitions_within", None),
    (COMMON, "merge_partition_skylines", "common.merge_partition_skylines", None),
    ("repro.mapreduce.engine:SerialEngine", "run", "mapreduce.run", _count_job),
    ("repro", "skyline", "pipeline.skyline", _count_pipeline),
    (
        "repro.serve.frontend:QueryFrontend",
        "submit_query",
        "serve.frontend.submit_query",
        None,
    ),
    (INDEX, "query", "serve.index.query", None),
    (INDEX, "insert", "serve.index.insert", None),
    (INDEX, "delete", "serve.index.delete", None),
    (INDEX, "batch_refresh", "serve.index.batch_refresh", None),
)


class Tracer:
    """Spans in memory plus the counts gathered at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def _wrap(self, name: str, fn, count: Count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        return wrapper

    def install(self) -> None:
        for owner_path, attr, name, count in POINTS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def per_name(self) -> Dict[str, Dict[str, float]]:
        """calls, inclusive ms and self ms per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}
        )
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["ms"] += 1e3 * (end - start)
            agg["self_ms"] += 1e3 * (end - start - child[i])
        return out


def traced(fn):
    """Run ``fn()`` under a fresh tracer; returns (tracer, result)."""
    tracer = Tracer()
    tracer.install()
    try:
        return tracer, fn()
    finally:
        tracer.uninstall()


#: Every per-layer metric, in the order they are printed.
PER_LAYER = (
    "dominance.dominated_mask.calls",
    "dominance.dominated_mask.pairs",
    "dominance.dominated_mask.self_ms",
    "dominance.dominated_mask.mpairs_per_s",
    "dominance.point_dominated_by.calls",
    "dominance.point_dominated_by.self_ms",
    "dominance.dominated_by_point.calls",
    "dominance.dominated_by_point.self_ms",
    "pointset.local_skyline.calls",
    "pointset.local_skyline.rows_in",
    "pointset.local_skyline.rows_out",
    "pointset.local_skyline.self_ms",
    "pointset.remove_dominated_by.self_ms",
    "common.partition_local_skylines.self_ms",
    "common.compare_partitions_within.self_ms",
    "common.merge_partition_skylines.self_ms",
    counter_names.TUPLE_COMPARES,
    counter_names.PARTITION_COMPARES,
    counter_names.TUPLES_PRUNED_BY_BITSTRING,
    "mapreduce.run.calls",
    "mapreduce.run.ms",
    "mapreduce.map_task.ms_sum",
    "mapreduce.map_task.ms_max",
    "mapreduce.reduce_task.ms_sum",
    "mapreduce.reduce_task.ms_max",
    "mapreduce.overhead_ms",
    counter_names.SHUFFLE_BYTES,
    counter_names.RECORDS_IN,
    "mr.max_reducer_records_in",
    "pipeline.skyline.calls",
    "pipeline.skyline.ms",
    "pipeline.skyline_size",
    "pipeline.simulated_s",
    "pipeline.model_over_measured",
    "serve.frontend.submit_query.self_ms",
    "serve.cache.hit_rate",
    "serve.index.query.ms",
    "serve.index.insert.ms",
    "serve.index.delete.ms",
    "serve.index.batch_refresh.count",
    "serve.index.batch_refresh.ms",
    "serve.delta_repairs",
    "serve.virtual_qps",
    "trace.unit_ms",
    "trace.overhead_pct",
    "host.ref_ms",
    "host.raw_p50_ms",
    "host.raw_ops_per_s",
)


#: The span aggregates that are per-layer metrics, as ``<span>.<field>``.
SPAN_FIELDS = (
    ("dominance.dominated_mask", ("calls", "self_ms")),
    ("dominance.point_dominated_by", ("calls", "self_ms")),
    ("dominance.dominated_by_point", ("calls", "self_ms")),
    ("pointset.local_skyline", ("calls", "self_ms")),
    ("pointset.remove_dominated_by", ("self_ms",)),
    ("common.partition_local_skylines", ("self_ms",)),
    ("common.compare_partitions_within", ("self_ms",)),
    ("common.merge_partition_skylines", ("self_ms",)),
    ("mapreduce.run", ("calls", "ms")),
    ("pipeline.skyline", ("calls", "ms")),
    ("serve.frontend.submit_query", ("self_ms",)),
    ("serve.index.query", ("ms",)),
    ("serve.index.insert", ("ms",)),
    ("serve.index.delete", ("ms",)),
    ("serve.index.batch_refresh", ("ms",)),
)


def layer_metrics(tracer: Tracer, unit_ms: float) -> Dict[str, float]:
    """Per-layer figures of one traced unit of work."""
    spans = tracer.per_name()
    counts = tracer.counts
    out: Dict[str, float] = {"trace.unit_ms": unit_ms}
    for name, fields in SPAN_FIELDS:
        for field in fields:
            out[f"{name}.{field}"] = spans[name][field]
    out["serve.index.batch_refresh.count"] = spans["serve.index.batch_refresh"]["calls"]
    mask_s = spans["dominance.dominated_mask"]["self_ms"] / 1e3
    pairs = counts["dominance.dominated_mask.pairs"]
    out["dominance.dominated_mask.mpairs_per_s"] = (
        pairs / mask_s / 1e6 if mask_s else 0.0
    )
    out["mapreduce.overhead_ms"] = out["mapreduce.run.ms"] - (
        counts["mapreduce.map_task.ms_sum"] + counts["mapreduce.reduce_task.ms_sum"]
    )
    pipeline_s = out["pipeline.skyline.ms"] / 1e3
    out["pipeline.model_over_measured"] = (
        counts["pipeline.simulated_s"] / pipeline_s if pipeline_s else 0.0
    )
    for name, value in counts.items():
        out.setdefault(name, value)
    return out


def merge_units(units: List[Dict[str, float]], checker) -> Dict[str, float]:
    """Median over traced units; the exact counts must all agree."""
    for name in EXACT:
        values = {unit.get(name, 0) for unit in units}
        checker.guard(
            len(values) == 1, f"{name} differs between traced units: {values}"
        )
    return {
        name: statistics.median(unit.get(name, 0.0) for unit in units)
        for name in PER_LAYER
        if name in units[0]
    }


def twins(unit) -> Tuple[list, list, float, List[float]]:
    """Warm up, then ``REPS`` pairs of an untraced and a traced ``unit()``.

    ``unit()`` returns (wall ms, result). Each unit is corrected by the
    references on both sides of it. Returns the untraced (ms, result)
    pairs, the traced (tracer, ms, result) triples, the tracing overhead
    in percent and the references.
    """
    unit()
    refs = [host.reference_ms()]
    plain, runs, plain_ms, traced_ms = [], [], [], []

    def corrected(ms):
        return ms * 2 * host.REF_NOMINAL_MS / (refs[-2] + refs[-1])

    for _ in range(REPS):
        ms, result = unit()
        refs.append(host.reference_ms())
        plain.append((ms, result))
        plain_ms.append(corrected(ms))
        tracer, (ms, result) = traced(unit)
        refs.append(host.reference_ms())
        runs.append((tracer, ms, result))
        traced_ms.append(corrected(ms))
    base = statistics.median(plain_ms)
    overhead = 100.0 * (statistics.median(traced_ms) - base) / base
    return plain, runs, overhead, refs


def run_batch(name: str, seed: int) -> Dict:
    checker = workloads.Checker()
    caller = workloads.BatchCaller(workloads.BATCH[name], seed, checker)

    def unit():
        elapsed, result = caller.call(0)
        return 1e3 * elapsed, result

    plain, runs, overhead, refs = twins(unit)
    metrics = merge_units([layer_metrics(t, ms) for t, ms, _ in runs], checker)
    raw = [ms for ms, _ in plain]
    metrics.update(
        {
            "trace.overhead_pct": overhead,
            "host.ref_ms": statistics.median(refs),
            "host.raw_p50_ms": statistics.median(raw),
            "host.raw_ops_per_s": 1e3 * len(raw) / sum(raw),
        }
    )
    return {"checker": checker, "metrics": metrics}


def virtual_qps(spec, seed: int, stream) -> float:
    """Queries/s of the program's own virtual-clock serving model.

    The same ops replayed open-loop at the arrival rate of the
    ``mixed-anticorrelated`` workload, through the repository's replay.
    """
    shape = replace(
        SERVE_WORKLOADS["mixed-anticorrelated"],
        cardinality=spec.initial,
        num_ops=spec.num_ops,
        cache_capacity=spec.cache_capacity,
        staleness_budget=spec.staleness_budget,
    )
    arrivals = np.cumsum(
        np.random.default_rng([seed, 0]).exponential(
            shape.mean_interarrival_s, len(stream.ops)
        )
    )
    timed = [(op[0], float(t)) + op[1:] for op, t in zip(stream.ops, arrivals)]
    report, _ = serve_stream(
        OpStream(workload=shape, seed=seed, initial_data=stream.data, ops=timed)
    )
    return report["queries_per_s"]


def run_serve(name: str, seed: int) -> Dict:
    spec = workloads.SERVE[name]
    stream = workloads.serve_inputs(spec, seed, 1)
    checker = workloads.Checker()

    def unit():
        run = workloads.serve_pass(spec, stream, checker, False)
        return 1e3 * (run["setup_s"] + sum(run["elapsed"])), run

    plain, runs, overhead, refs = twins(unit)
    units = []
    for tracer, ms, run in runs:
        unit_metrics = layer_metrics(tracer, ms)
        unit_metrics["serve.cache.hit_rate"] = run["frontend"].cache.hit_rate()
        unit_metrics["serve.delta_repairs"] = run["counts"]["serve.delta_repairs"]
        units.append(unit_metrics)
    metrics = merge_units(units, checker)
    queries = set(workloads.QUERY_CLASSES)
    metrics.update(
        {
            "serve.virtual_qps": virtual_qps(spec, seed, stream),
            "trace.overhead_pct": overhead,
            "host.ref_ms": statistics.median(refs),
            "host.raw_p50_ms": statistics.median(
                1e3 * statistics.median(
                    e for e, c in zip(run["elapsed"], run["classes"]) if c in queries
                )
                for _, run in plain
            ),
            "host.raw_ops_per_s": statistics.median(
                len(run["elapsed"]) / sum(run["elapsed"]) for _, run in plain
            ),
        }
    )
    return {"checker": checker, "metrics": metrics}


def run(name: str, seed: int, seconds: float) -> Dict:
    """Per-layer metrics of ``name``; every name in PER_LAYER is present."""
    del seconds  # a traced run is sized by REPS, not by the clock
    if name in workloads.BATCH:
        out = run_batch(name, seed)
    else:
        out = run_serve(name, seed)
    out["metrics"] = {name: out["metrics"].get(name, 0.0) for name in PER_LAYER}
    out["diagnostics"] = {}
    return out
