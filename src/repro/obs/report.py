"""Machine-readable run reports: build, write, load, render, diff.

One JSON artifact per pipeline run, capturing everything the paper's
evaluation sections ask of an execution — configuration, dataset
fingerprint, per-job counters and shuffle/broadcast traffic, per-task
attempt histories, the reconstructed simulated schedule, histogram
summaries, and a skyline checksum — in a layout with one hard rule:

    **every wall-clock quantity lives under the single top-level
    "wall" key; everything else is deterministic.**

Identical (data, seed, configuration) runs therefore produce
byte-identical reports outside ``"wall"`` on every engine — the
property ``tests/test_report.py`` pins and ``repro-skyline report a b``
exploits: diffing two reports ignores ``"wall"`` by default, so a real
regression is never drowned in timing noise.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import ValidationError
from repro.obs.schema import REPORT_SCHEMA_VERSION

#: Decimal places kept for simulated-clock floats. Simulated times are
#: pure functions of counters and cluster rates, hence deterministic;
#: rounding only keeps the JSON compact and stable across platforms.
_SIM_DECIMALS = 9


def _round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(float(value), _SIM_DECIMALS)


def dataset_fingerprint(data) -> Dict[str, Any]:
    """Shape + content hash of the input array."""
    array = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return {
        "cardinality": int(array.shape[0]),
        "dimensionality": int(array.shape[1]) if array.ndim > 1 else 1,
        "sha256": digest.hexdigest(),
    }


def skyline_checksum(result) -> Dict[str, Any]:
    """Size + content hash of a SkylineResult (indices and values)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.indices).tobytes())
    digest.update(np.ascontiguousarray(result.values).tobytes())
    return {"size": len(result), "sha256": digest.hexdigest()}


def pointset_checksum(points) -> Dict[str, Any]:
    """Size + content hash of a PointSet (ids and values) — the serving
    layer's skyline fingerprint (point ids, not positional indices)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(points.ids).tobytes())
    digest.update(np.ascontiguousarray(points.values).tobytes())
    return {"size": len(points), "sha256": digest.hexdigest()}


def _task_entry(task) -> Dict[str, Any]:
    """One task's deterministic record (durations live under 'wall')."""
    return {
        "task": str(task.task_id),
        "records_in": task.records_in,
        "records_out": task.records_out,
        "bytes_out": task.bytes_out,
        "counters": task.counters.as_dict(),
        "attempts": [
            {
                "attempt": a.attempt,
                "outcome": a.outcome,
                "slowdown": a.slowdown,
                "error": a.error,
                "node": a.node,
            }
            for a in task.attempts
        ],
    }


def _schedule_entry(schedule) -> Dict[str, Any]:
    """A JobSchedule serialized on the simulated clock."""
    return {
        "makespan_s": _round(schedule.makespan_s),
        "phases": [
            {
                "phase": phase.phase,
                "start_s": _round(phase.start_s),
                "end_s": _round(phase.end_s),
                "tasks": [
                    {
                        "name": t.name,
                        "slot": t.slot,
                        "start_s": _round(t.start_s),
                        "end_s": _round(t.end_s),
                        "outcome": t.outcome,
                    }
                    for t in phase.tasks
                ],
            }
            for phase in schedule.phases
        ],
    }


def build_report(
    result,
    data,
    cluster,
    engine=None,
    collector=None,
    config: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the run report for one SkylineResult.

    ``collector`` is the optional
    :class:`~repro.obs.metrics.MetricsCollector` that observed the run;
    its deterministic histogram summaries land in ``"histograms"`` and
    its wall-clock ones under ``"wall"``. ``config`` carries
    caller-known context (CLI flags, workload spec, seeds).
    """
    from repro.bsp import CostReport
    from repro.mapreduce.trace import build_schedule

    stats = result.stats
    engine_config: Dict[str, Any] = {}
    if engine is not None:
        engine_config["engine"] = type(engine).__name__
        faults = getattr(engine, "faults", None)
        if faults is not None:
            engine_config["faults"] = faults.describe()
        if getattr(engine, "speculative", False):
            engine_config["speculative"] = True
        retry = getattr(engine, "retry", None)
        if retry is not None and retry.max_attempts != 1:
            engine_config["max_attempts"] = retry.max_attempts
    jobs: List[Dict[str, Any]] = []
    for job_stats in stats.jobs:
        jobs.append(
            {
                "name": job_stats.job_name,
                "num_map_tasks": job_stats.num_map_tasks,
                "num_reduce_tasks": job_stats.num_reduce_tasks,
                "shuffle_bytes": job_stats.shuffle_bytes,
                "broadcast_bytes": job_stats.broadcast_bytes,
                "counters": job_stats.counters.as_dict(),
                "tasks": [
                    _task_entry(t)
                    for t in list(job_stats.map_tasks)
                    + list(job_stats.reduce_tasks)
                ],
                "schedule": _schedule_entry(
                    build_schedule(cluster, job_stats)
                ),
            }
        )
    report: Dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "algorithm": result.algorithm,
        "config": {
            "cluster": cluster.describe(),
            **engine_config,
            **(config or {}),
        },
        "dataset": dataset_fingerprint(data),
        "skyline": skyline_checksum(result),
        "jobs": jobs,
        "counters": stats.counters().as_dict(),
        "histograms": collector.summaries(wall_clock=False)
        if collector is not None
        else {},
        "gauges": collector.gauge_values() if collector is not None else {},
        "simulated": {
            "makespan_s": _round(stats.simulated_s),
            "job_makespans_s": [
                _round(cluster.job_makespan(j)) for j in stats.jobs
            ],
        },
        "wall": {
            "wall_s": stats.wall_s,
            "cpu_s": stats.total_cpu_s(),
            "histograms": collector.summaries(wall_clock=True)
            if collector is not None
            else {},
        },
    }
    # The rounds/replication frontier, folded from what each shuffle
    # moved. Deterministic — a pure function of job definitions and
    # data, identical under every engine — so it lives outside "wall".
    report["cost"] = CostReport.from_jobs(stats.jobs).as_dict()
    return report


#: Counters a serve run report keeps: request-level names whose values
#: are identical between the unsharded frontend and a shards=1 sharded
#: replay of the same stream (the byte-identical-report contract).
#: Shard-internal work counters (``serve.shard.*``, repair/refresh/
#: compare totals) legitimately differ between those twins and are
#: deliberately excluded. The ``serve.tenant.<tenant>.*`` family is
#: kept wholesale — tenant attribution is request-level.
SERVE_REPORT_COUNTERS = frozenset(
    (
        "serve.queries",
        "serve.cache_hits",
        "serve.cache_misses",
        "serve.cache_evictions",
        "serve.queries_shed",
        "serve.queries_timed_out",
        "serve.inserts",
        "serve.deletes",
    )
)

#: Histograms a serve run report keeps (same contract: request-level).
SERVE_REPORT_HISTOGRAMS = ("serve.query_latency_s", "serve.queue_wait_s")


def build_serve_run_report(
    stream,
    headline: Dict[str, Any],
    frontend,
    *,
    skyline,
    monitor=None,
    collector=None,
    config: Optional[Dict[str, Any]] = None,
    wall_s: float = 0.0,
) -> Dict[str, Any]:
    """Assemble the run report for one served op stream.

    The serving twin of :func:`build_report` (``"kind": "serve"``,
    validated by ``repro.obs.schema``): ``headline`` is the
    :func:`repro.serve.workloads.build_serve_report` summary, ``stream``
    fingerprints the inputs, ``skyline`` is the final skyline
    :class:`~repro.core.pointset.PointSet`, ``monitor`` the optional
    :class:`~repro.obs.slo.SLOMonitor` (its summary lands under
    ``"slo"``), and ``collector`` the optional metrics collector (only
    the request-level serve histograms are kept). Everything outside
    ``"wall"`` is deterministic, and at ``shards=1`` with batching
    disabled the sharded and unsharded frontends produce byte-identical
    reports for the same stream.
    """
    counters = {
        name: value
        for name, value in sorted(frontend.counters.as_dict().items())
        if name in SERVE_REPORT_COUNTERS
        or name.startswith("serve.tenant.")
    }
    histograms: Dict[str, Any] = {}
    if collector is not None:
        summaries = collector.summaries(wall_clock=False)
        histograms = {
            name: summaries[name]
            for name in SERVE_REPORT_HISTOGRAMS
            if name in summaries
        }
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "serve",
        "workload": headline,
        "config": dict(config or {}),
        "dataset": dataset_fingerprint(stream.initial_data),
        "skyline": pointset_checksum(skyline),
        "counters": counters,
        "histograms": histograms,
        "slo": monitor.summary() if monitor is not None else {},
        "wall": {"wall_s": wall_s},
    }


def write_report(path: str, report: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        report = json.load(handle)
    if not isinstance(report, dict) or "schema_version" not in report:
        raise ValidationError(f"{path} is not a run report")
    return report


def canonical_json(report: Dict[str, Any], ignore=("wall",)) -> str:
    """The report's deterministic content as a canonical JSON string."""
    trimmed = {k: v for k, v in report.items() if k not in ignore}
    return json.dumps(trimmed, sort_keys=True, separators=(",", ":"))


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of one report."""
    if report.get("kind") == "serve":
        return _render_serve_report(report)
    lines = [
        f"algorithm:  {report.get('algorithm')}",
        f"dataset:    {report['dataset']['cardinality']} x "
        f"{report['dataset']['dimensionality']}  "
        f"(sha256 {report['dataset']['sha256'][:12]}…)",
        f"skyline:    {report['skyline']['size']} tuples  "
        f"(sha256 {report['skyline']['sha256'][:12]}…)",
        f"simulated:  {report['simulated']['makespan_s']}s makespan",
        f"wall:       {report['wall']['wall_s']:.3f}s "
        f"(cpu {report['wall']['cpu_s']:.3f}s)",
        "jobs:",
    ]
    cost = report.get("cost")
    if cost:
        lines.insert(
            4,
            f"cost:       {cost['rounds']} rounds / "
            f"{cost['supersteps']} supersteps, replication "
            f"{cost['replication_rate']:.3f}x, max reducer input "
            f"{cost['max_reducer_input_records']} records",
        )
    for job in report.get("jobs", ()):
        lines.append(
            f"  {job['name']}: {job['num_map_tasks']} map + "
            f"{job['num_reduce_tasks']} reduce tasks, "
            f"shuffle {job['shuffle_bytes']} B, "
            f"broadcast {job['broadcast_bytes']} B"
        )
    counters = report.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:40s} {counters[name]}")
    histograms = report.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            summary = histograms[name]
            lines.append(
                f"  {name:40s} n={summary['count']} "
                f"min={summary['min']} max={summary['max']}"
            )
    return "\n".join(lines)


def _render_serve_report(report: Dict[str, Any]) -> str:
    headline = report.get("workload", {})
    lines = [
        f"workload:   {headline.get('workload')} "
        f"(seed {headline.get('seed')}, policy {headline.get('policy')}, "
        f"shards {headline.get('shards')})",
        f"dataset:    {report['dataset']['cardinality']} x "
        f"{report['dataset']['dimensionality']}  "
        f"(sha256 {report['dataset']['sha256'][:12]}…)",
        f"skyline:    {report['skyline']['size']} tuples  "
        f"(sha256 {report['skyline']['sha256'][:12]}…)",
        f"served:     {headline.get('queries_served')} ok, "
        f"{headline.get('queries_shed')} shed, "
        f"{headline.get('queries_timed_out')} timed out  "
        f"(p99 {headline.get('p99_latency_s')}s)",
        f"wall:       {report['wall']['wall_s']:.3f}s",
    ]
    slo = report.get("slo") or {}
    for objective in slo.get("objectives", ()):
        lines.append(
            f"slo {objective['name']}: worst burn "
            f"{objective['worst_burn']} over {slo.get('windows_closed')} "
            f"windows, {objective.get('tripped_windows', 0)} tripped"
        )
    recorder = slo.get("flight_recorder") or {}
    if recorder:
        lines.append(
            f"flight recorder: {len(recorder.get('dumps', ()))} dumps "
            f"(+{recorder.get('suppressed_dumps', 0)} suppressed)"
        )
    counters = report.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:40s} {counters[name]}")
    return "\n".join(lines)


def diff_reports(
    a: Dict[str, Any], b: Dict[str, Any], ignore=("wall",)
) -> List[str]:
    """Paths where two reports disagree (wall-clock ignored by default)."""
    differences: List[str] = []

    def walk(left, right, path):
        if type(left) is not type(right):
            differences.append(
                f"{path}: {type(left).__name__} != {type(right).__name__}"
            )
            return
        if isinstance(left, dict):
            for key in sorted(set(left) | set(right)):
                if key not in left:
                    differences.append(f"{path}.{key}: only in second")
                elif key not in right:
                    differences.append(f"{path}.{key}: only in first")
                else:
                    walk(left[key], right[key], f"{path}.{key}")
        elif isinstance(left, list):
            if len(left) != len(right):
                differences.append(
                    f"{path}: length {len(left)} != {len(right)}"
                )
                return
            for index, (lv, rv) in enumerate(zip(left, right)):
                walk(lv, rv, f"{path}[{index}]")
        elif left != right:
            differences.append(f"{path}: {left!r} != {right!r}")

    for key in sorted((set(a) | set(b)) - set(ignore)):
        if key not in a:
            differences.append(f"{key}: only in second")
        elif key not in b:
            differences.append(f"{key}: only in first")
        else:
            walk(a[key], b[key], key)
    return differences
