"""The serial (deterministic) MapReduce engine.

Executes a :class:`~repro.mapreduce.job.MapReduceJob` exactly as Hadoop
would — map, optional combine, partition, shuffle/sort/group, reduce —
but one task at a time, timing every task. Parallelism is *modelled*,
not exercised: the cluster model turns per-task durations into a
makespan (see :mod:`repro.mapreduce.cluster`), while
:class:`~repro.mapreduce.parallel.ThreadPoolEngine` and
:class:`~repro.mapreduce.parallel.ProcessPoolEngine` offer genuinely
concurrent execution with identical semantics.

Map tasks have two input protocols. When a split carries a columnar
block (:class:`~repro.mapreduce.types.BlockInputSplit`) and the mapper
overrides :meth:`~repro.mapreduce.types.Mapper.map_block`, the engine
hands the whole block over in one call — zero per-tuple Python work.
Otherwise it iterates ``(key, value)`` records exactly as before.
Counters, shuffle-byte accounting, and outputs are identical on both
paths; ``block_path=False`` forces the record path (used by the
fast-path benchmark and the equivalence tests).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from repro.core.pointset import PointSet
from repro.errors import TaskFailedError, ValidationError
from repro.mapreduce import counters as counter_names
from repro.mapreduce.faults import FaultPlan, RetryPolicy
from repro.mapreduce.job import JobResult, MapReduceJob
from repro.mapreduce.metrics import AttemptRecord, JobStats, TaskStats
from repro.mapreduce.sizes import payload_size, payload_units
from repro.mapreduce.types import (
    KeyValue,
    TaskContext,
    TaskId,
    supports_block_map,
)
from repro.obs.events import (
    Broadcast,
    EventBus,
    FaultInjected,
    JobEnd,
    JobStart,
    Shuffle,
    SpeculationLaunched,
    TaskAttemptEnd,
    TaskAttemptStart,
    bus_active,
    replay_task_events,
)


def _sorted_keys(keys) -> List:
    """Sort keys; fall back to repr order for mixed/unsortable keys."""
    keys = list(keys)
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=repr)


def _group_by_key(
    pairs: List[KeyValue], sort: bool, merge_blocks: bool = False
) -> "OrderedDict":
    grouped: Dict = OrderedDict()
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    if merge_blocks:
        for key, values in grouped.items():
            if (
                len(values) > 1
                and all(isinstance(v, PointSet) for v in values)
                and any(len(v) for v in values)
            ):
                grouped[key] = [PointSet.concat(values)]
    if not sort:
        return grouped
    ordered = OrderedDict()
    for key in _sorted_keys(grouped.keys()):
        ordered[key] = grouped[key]
    return ordered


def attempt_task(
    task_id: TaskId,
    run_once,
    retry,
    faults: "FaultPlan" = None,
    speculative: bool = False,
    bus: "EventBus" = None,
    job: str = None,
):
    """Run ``run_once`` under a retry policy; returns ``(result, attempts)``.

    A failing attempt is re-run from scratch (the caller builds a fresh
    task instance and context per attempt), up to the policy's attempt
    budget — but only for *retryable* errors: programming and validation
    bugs fail identically every time, so the policy surfaces them
    immediately instead of burning attempts.

    ``faults`` injects deterministic failures and straggler slowdowns
    per attempt; with ``speculative`` enabled, a straggler attempt gets
    a backup copy (run on a different simulated node, no injected
    slowdown) and the first finisher wins — the loser is recorded as
    ``killed``, exactly Hadoop's speculative execution.

    ``attempts`` is the complete :class:`AttemptRecord` history in
    execution order; the winning attempt is always last. ``retry`` also
    accepts a bare int (the legacy ``max_attempts``).
    """
    if isinstance(retry, int):
        retry = RetryPolicy.from_attempts(retry)
    attempts: List[AttemptRecord] = []
    last_error = None
    for attempt in range(retry.max_attempts):
        node = faults.node_of(task_id) if faults is not None else None
        if bus_active(bus):
            bus.emit(
                TaskAttemptStart(
                    job=job, task_id=str(task_id), attempt=attempt, node=node
                )
            )
        injected = (
            faults.injected_error(task_id, attempt)
            if faults is not None
            else None
        )
        if injected is not None:
            # The injected crash kills the attempt at the end of its
            # work (it is still charged in full by the makespan model);
            # the real task body never runs, so no partial output and
            # no wasted CPU in the simulation.
            record = AttemptRecord(
                attempt=attempt,
                outcome="failed",
                slowdown=faults.slowdown(task_id, attempt),
                error=repr(injected),
                node=node,
            )
            attempts.append(record)
            if bus_active(bus):
                bus.emit(
                    FaultInjected(
                        job=job,
                        task_id=str(task_id),
                        attempt=attempt,
                        error=record.error,
                        node=node,
                    )
                )
                bus.emit(
                    TaskAttemptEnd(
                        job=job,
                        task_id=str(task_id),
                        attempt=attempt,
                        outcome="failed",
                        slowdown=record.slowdown,
                        error=record.error,
                        node=node,
                    )
                )
            last_error = injected
            continue
        started = time.perf_counter()
        try:
            result = run_once(attempt)
        except Exception as exc:  # repro: allow[REP006]
            # The fault-tolerance boundary: ANY user-code error is a
            # task failure by definition (exactly Hadoop's child-JVM
            # catch). ValidationError is not swallowed — the retry
            # policy classifies it non-retryable and re-raises below.
            record = AttemptRecord(
                attempt=attempt,
                outcome="failed",
                duration_s=time.perf_counter() - started,
                error=repr(exc),
                node=node,
            )
            attempts.append(record)
            if bus_active(bus):
                bus.emit(
                    TaskAttemptEnd(
                        job=job,
                        task_id=str(task_id),
                        attempt=attempt,
                        outcome="failed",
                        duration_s=record.duration_s,
                        error=record.error,
                        node=node,
                    )
                )
            last_error = exc
            if not retry.is_retryable(exc):
                raise TaskFailedError(str(task_id), exc) from exc
            continue
        duration = time.perf_counter() - started
        slowdown = (
            faults.slowdown(task_id, attempt) if faults is not None else 1.0
        )
        if speculative and slowdown > 1.0:
            backup = _speculate(
                task_id, run_once, attempt, duration, slowdown, node,
                faults, attempts, bus=bus, job=job,
            )
            if backup is not None:
                return backup, attempts
            return result, attempts
        attempts.append(
            AttemptRecord(
                attempt=attempt,
                outcome="success",
                duration_s=duration,
                slowdown=slowdown,
                node=node,
            )
        )
        if bus_active(bus):
            bus.emit(
                TaskAttemptEnd(
                    job=job,
                    task_id=str(task_id),
                    attempt=attempt,
                    outcome="success",
                    duration_s=duration,
                    slowdown=slowdown,
                    node=node,
                )
            )
        return result, attempts
    raise TaskFailedError(str(task_id), last_error) from last_error


def _speculate(
    task_id, run_once, attempt, duration, slowdown, node, faults, attempts,
    bus=None, job=None,
):
    """Launch a backup copy of a straggler attempt; first finisher wins.

    The backup runs on a neighbouring simulated node at normal speed,
    so (slowdown > 1 being the trigger) it always finishes first in
    modelled time: the straggler is recorded as ``killed`` — charged
    only up to the backup's finish, as Hadoop kills the loser — and the
    backup's result is used. If the backup itself crashes (only
    possible with genuinely flaky user code), the straggler's completed
    result stands and ``None`` is returned.
    """
    backup_node = (
        (node + 1) % faults.num_nodes if node is not None else None
    )
    if bus_active(bus):
        bus.emit(
            SpeculationLaunched(
                job=job,
                task_id=str(task_id),
                attempt=attempt,
                node=node,
                backup_node=backup_node,
            )
        )
        bus.emit(
            TaskAttemptStart(
                job=job,
                task_id=str(task_id),
                attempt=attempt,
                node=backup_node,
                speculative=True,
            )
        )
    started = time.perf_counter()
    try:
        backup_result = run_once(attempt)
    except Exception as exc:  # repro: allow[REP006]
        # Same fault-tolerance boundary as attempt_task: a crashed
        # backup of any error type must not kill the job while the
        # straggler's completed result stands.
        # Winner last: the crashed backup is recorded before the
        # straggler's surviving success.
        attempts.append(
            AttemptRecord(
                attempt=attempt,
                outcome="failed",
                duration_s=time.perf_counter() - started,
                error=repr(exc),
                node=backup_node,
            )
        )
        attempts.append(
            AttemptRecord(
                attempt=attempt,
                outcome="success",
                duration_s=duration,
                slowdown=slowdown,
                node=node,
            )
        )
        if bus_active(bus):
            failed_backup, straggler = attempts[-2], attempts[-1]
            bus.emit(
                TaskAttemptEnd(
                    job=job,
                    task_id=str(task_id),
                    attempt=attempt,
                    outcome="failed",
                    duration_s=failed_backup.duration_s,
                    error=failed_backup.error,
                    node=backup_node,
                    speculative=True,
                )
            )
            bus.emit(
                TaskAttemptEnd(
                    job=job,
                    task_id=str(task_id),
                    attempt=attempt,
                    outcome="success",
                    duration_s=straggler.duration_s,
                    slowdown=straggler.slowdown,
                    node=node,
                )
            )
        return None
    attempts.append(
        AttemptRecord(
            attempt=attempt,
            outcome="killed",
            duration_s=duration,
            slowdown=slowdown,
            node=node,
        )
    )
    attempts.append(
        AttemptRecord(
            attempt=attempt,
            outcome="speculative",
            duration_s=time.perf_counter() - started,
            slowdown=1.0,
            node=backup_node,
        )
    )
    if bus_active(bus):
        killed, winner = attempts[-2], attempts[-1]
        bus.emit(
            TaskAttemptEnd(
                job=job,
                task_id=str(task_id),
                attempt=attempt,
                outcome="killed",
                duration_s=killed.duration_s,
                slowdown=killed.slowdown,
                node=node,
            )
        )
        bus.emit(
            TaskAttemptEnd(
                job=job,
                task_id=str(task_id),
                attempt=attempt,
                outcome="speculative",
                duration_s=winner.duration_s,
                node=backup_node,
                speculative=True,
            )
        )
    return backup_result


def run_combiner(
    job, split_id: int, map_ctx: TaskContext, output: List[KeyValue]
) -> List[KeyValue]:
    """Run the combiner over one mapper's output, in the map task."""
    combine_ctx = TaskContext(
        TaskId("combine", split_id), job.num_reducers, job.cache
    )
    combiner = job.combiner_factory()
    combiner.setup(combine_ctx)
    for key, values in _group_by_key(output, job.sort_keys).items():
        combiner.reduce(key, values, combine_ctx)
    combiner.cleanup(combine_ctx)
    map_ctx.counters.merge(combine_ctx.counters)
    return combine_ctx.output


def execute_map_attempt(
    job, split, task_id: TaskId, block_path: bool
) -> Tuple[TaskContext, List[KeyValue], int, float]:
    """One attempt of one map task (block fast path or record path).

    ``job`` only needs mapper/combiner factories, ``num_reducers``,
    ``cache`` and ``sort_keys`` — engines may pass a slim job spec
    (the process-pool engine ships one to its workers).
    """
    ctx = TaskContext(task_id, job.num_reducers, job.cache)
    mapper = job.mapper_factory()
    started = time.perf_counter()
    mapper.setup(ctx)
    points = getattr(split, "points", None) if block_path else None
    if points is not None and supports_block_map(mapper):
        records_in = len(points)
        mapper.map_block(points, ctx)
    else:
        records_in = 0
        for key, value in split:
            records_in += 1
            mapper.map(key, value, ctx)
    mapper.cleanup(ctx)
    output = ctx.output
    if job.combiner_factory is not None:
        output = run_combiner(job, split.split_id, ctx, output)
    return ctx, output, records_in, time.perf_counter() - started


def execute_reduce_attempt(
    job, bucket: List[KeyValue], task_id: TaskId
) -> Tuple[TaskContext, float]:
    """One attempt of one reduce task over its shuffled bucket."""
    ctx = TaskContext(task_id, job.num_reducers, job.cache)
    reducer = job.reducer_factory()
    grouped = _group_by_key(
        bucket, job.sort_keys, getattr(job, "merge_point_blocks", False)
    )
    started = time.perf_counter()
    reducer.setup(ctx)
    for key, values in grouped.items():
        reducer.reduce(key, values, ctx)
    reducer.cleanup(ctx)
    return ctx, time.perf_counter() - started


def _charge_attempt_counters(ctx: TaskContext, attempts) -> None:
    """Fold the attempt history into the task's counters.

    Only charged when nonzero so fault-free runs keep their exact
    pre-fault counter fingerprints.
    """
    retries = sum(1 for a in attempts if a.outcome == "failed")
    if retries:
        ctx.counters.inc(counter_names.TASK_RETRIES, retries)
    speculative = sum(1 for a in attempts if a.outcome == "speculative")
    if speculative:
        ctx.counters.inc(counter_names.SPECULATIVE_ATTEMPTS, speculative)
    node_losses = sum(
        1
        for a in attempts
        if a.error is not None and a.error.startswith("NodeLostError")
    )
    if node_losses:
        ctx.counters.inc(counter_names.NODE_LOSS_REEXECS, node_losses)


def finish_map_task(
    task_id: TaskId, ctx: TaskContext, output: List[KeyValue],
    records_in: int, duration: float, attempts=(),
) -> TaskStats:
    """Charge per-task counters for one map task.

    Its ``bytes_out`` is charged by the shuffle, which sizes every
    record it routes anyway (:meth:`SerialEngine._shuffle`).
    """
    ctx.counters.inc(counter_names.RECORDS_IN, records_in)
    ctx.counters.inc(counter_names.RECORDS_OUT, len(output))
    _charge_attempt_counters(ctx, attempts)
    return TaskStats(
        task_id=task_id,
        duration_s=duration,
        records_in=records_in,
        records_out=len(output),
        bytes_out=0,
        counters=ctx.counters,
        attempts=list(attempts),
    )


def finish_reduce_task(
    task_id: TaskId, ctx: TaskContext, records_in: int, duration: float,
    attempts=(),
) -> TaskStats:
    """Charge per-task counters and byte accounting for one reduce task."""
    output = ctx.output
    bytes_out = sum(payload_size(k) + payload_size(v) for k, v in output)
    ctx.counters.inc(counter_names.RECORDS_IN, records_in)
    ctx.counters.inc(counter_names.RECORDS_OUT, len(output))
    _charge_attempt_counters(ctx, attempts)
    return TaskStats(
        task_id=task_id,
        duration_s=duration,
        records_in=records_in,
        records_out=len(output),
        bytes_out=bytes_out,
        counters=ctx.counters,
        attempts=list(attempts),
    )


def partition_index(job, key, n: int) -> int:
    """One validated partitioner probe: which reducer gets ``key``.

    A negative index would silently wrap to the wrong
    reducer and an index >= num_reducers would raise a bare IndexError
    — both are configuration bugs worth naming.
    """
    index = job.partitioner(key, n)
    if not isinstance(index, int) or isinstance(index, bool):
        try:
            index = int(index)  # allow numpy integer indices
        except (TypeError, ValueError):
            raise ValidationError(
                f"partitioner returned non-integer {index!r} "
                f"for key {key!r} ({n} reducers)"
            ) from None
    if not 0 <= index < n:
        raise ValidationError(
            f"partitioner routed key {key!r} to reducer {index}, "
            f"outside [0, {n})"
        )
    return index


class SerialEngine:
    """Run jobs one task at a time with exact per-task accounting.

    ``retry`` (a :class:`~repro.mapreduce.faults.RetryPolicy`)
    reproduces Hadoop's task-retry fault tolerance (the paper's
    Section 1 motivation for MapReduce: "scalability and
    fault-tolerance"): a failing task is re-run from scratch with a
    fresh mapper/reducer instance and a fresh context, up to the
    policy's budget — except for non-retryable programming/validation
    errors, which fail the job immediately. Hadoop's default budget is
    4 attempts; ``max_attempts`` remains as shorthand for
    ``RetryPolicy(max_attempts=...)``.

    ``faults`` (a :class:`~repro.mapreduce.faults.FaultPlan`) injects
    deterministic per-attempt failures, node losses, and straggler
    slowdowns; ``speculative`` enables backup copies of stragglers.
    Results are engine- and fault-schedule-independent; only the
    attempt history and the simulated makespan change.

    ``block_path`` enables the columnar fast path for block splits and
    block-aware mappers (identical results either way; off switches the
    runtime back to record-at-a-time iteration everywhere).

    ``bus`` (an :class:`~repro.obs.events.EventBus`) receives the typed
    telemetry stream — job/task lifecycles, shuffle, broadcast, faults,
    speculation. ``None`` (the default) costs one ``is not None`` test
    per site; attached-but-unobserved stays within the documented < 2%
    budget because events are only constructed when a subscriber is
    listening.
    """

    #: Whether task attempts emit bus events live, as they run. The
    #: process-pool engine flips this off (worker processes have no
    #: channel to the parent's bus) and replays recorded histories in
    #: the collect phase instead.
    _live_task_events = True

    def __init__(
        self,
        max_attempts: int = 1,
        block_path: bool = True,
        retry: RetryPolicy = None,
        faults: FaultPlan = None,
        speculative: bool = False,
        bus: EventBus = None,
    ):
        if retry is None:
            if max_attempts < 1:
                raise ValidationError(
                    f"max_attempts must be >= 1, got {max_attempts}"
                )
            retry = RetryPolicy.from_attempts(max_attempts)
        self.retry = retry
        self.faults = faults
        self.speculative = bool(speculative)
        self.block_path = bool(block_path)
        self.bus = bus

    @property
    def max_attempts(self) -> int:
        return self.retry.max_attempts

    def __repr__(self) -> str:
        extras = ""
        if self.faults is not None:
            extras += f", faults={self.faults!r}"
        if self.speculative:
            extras += ", speculative=True"
        return f"{type(self).__name__}(block_path={self.block_path}{extras})"

    def _attempt(self, task_id: TaskId, run_once, job_name: str = None):
        """Run with retry/faults; returns ((ctx, ...), attempt history)."""
        return attempt_task(
            task_id,
            run_once,
            self.retry,
            faults=self.faults,
            speculative=self.speculative,
            bus=self.bus if self._live_task_events else None,
            job=job_name,
        )

    # -- single-task drivers (shared with the concurrent engines) -------

    def _map_task(self, job, split) -> Tuple[TaskStats, List[KeyValue]]:
        task_id = TaskId("map", split.split_id)
        (ctx, output, records_in, duration), attempts = self._attempt(
            task_id,
            lambda attempt: execute_map_attempt(
                job, split, task_id, self.block_path
            ),
            job_name=job.name,
        )
        return (
            finish_map_task(
                task_id, ctx, output, records_in, duration, attempts
            ),
            output,
        )

    def _reduce_task(
        self, job, r: int, bucket: List[KeyValue]
    ) -> Tuple[TaskStats, List[KeyValue]]:
        task_id = TaskId("reduce", r)
        (ctx, duration), attempts = self._attempt(
            task_id,
            lambda attempt: execute_reduce_attempt(job, bucket, task_id),
            job_name=job.name,
        )
        return (
            finish_reduce_task(task_id, ctx, len(bucket), duration, attempts),
            ctx.output,
        )

    # -- telemetry ------------------------------------------------------

    def _emit_job_start(self, job) -> None:
        if not bus_active(self.bus):
            return
        self.bus.emit(
            JobStart(
                job=job.name,
                num_mappers=len(job.splits),
                num_reducers=job.num_reducers,
            )
        )
        self.bus.emit(
            Broadcast(
                job=job.name,
                payload_bytes=job.cache.payload_bytes(),
                num_keys=len(job.cache),
            )
        )

    def _emit_job_end(self, stats: JobStats) -> None:
        if bus_active(self.bus):
            self.bus.emit(JobEnd(job=stats.job_name, stats=stats))

    # -- phase aggregation ----------------------------------------------

    def _collect_maps(self, stats: JobStats, map_results) -> List[List[KeyValue]]:
        replay = not self._live_task_events and bus_active(self.bus)
        map_outputs: List[List[KeyValue]] = []
        for task_stats, output in map_results:
            if replay:
                replay_task_events(self.bus, stats.job_name, task_stats)
            stats.map_tasks.append(task_stats)
            stats.counters.merge(task_stats.counters)
            map_outputs.append(output)
        return map_outputs

    def _collect_reduces(self, stats: JobStats, reduce_results) -> List[List[KeyValue]]:
        replay = not self._live_task_events and bus_active(self.bus)
        reducer_outputs: List[List[KeyValue]] = []
        for task_stats, output in reduce_results:
            if replay:
                replay_task_events(self.bus, stats.job_name, task_stats)
            stats.reduce_tasks.append(task_stats)
            stats.counters.merge(task_stats.counters)
            reducer_outputs.append(output)
        stats.counters.inc(counter_names.SHUFFLE_BYTES, stats.shuffle_bytes)
        return reducer_outputs

    def _shuffle(
        self, job, stats: JobStats, map_outputs: List[List[KeyValue]]
    ) -> List[List[KeyValue]]:
        """Route map outputs into per-reducer buckets and measure the
        exchange onto ``stats``; every engine shuffles here.

        Buckets fill in mapper-major order through the validated
        :func:`partition_index` probe. Each record is sized once: the
        bytes charge the sending map task's ``bytes_out``, the job's
        ``shuffle_bytes`` and the receiving reducer. The rest of the
        measurement is what :meth:`repro.bsp.cost.CostReport.from_jobs`
        folds into rounds and replication: logical records
        (:func:`payload_units`) sent per map task and received per
        reducer, and distinct source records — point ids deduplicated
        per map task, so a partition skyline routed to three groups
        counts three copies of one source.
        """
        n = job.num_reducers
        buckets: List[List[KeyValue]] = [[] for _ in range(n)]
        received_records = [0] * n
        received_bytes = [0] * n
        for task, output in zip(stats.map_tasks, map_outputs):
            ids: List[np.ndarray] = []
            sent = 0
            for key, value in output:
                dest = partition_index(job, key, n)
                units = payload_units(value, ids)
                size = payload_size(key) + payload_size(value)
                sent += units
                task.bytes_out += size
                received_records[dest] += units
                received_bytes[dest] += size
                buckets[dest].append((key, value))
            stats.shuffle_bytes += task.bytes_out
            stats.sent_records.append(sent)
            stats.source_records += sent
            if ids:
                # Id-carrying records count once per distinct point.
                id_array = np.sort(np.concatenate(ids))
                repeats = np.count_nonzero(id_array[1:] == id_array[:-1])
                stats.source_records -= int(repeats)
        stats.received_records = received_records
        stats.received_bytes = received_bytes
        if bus_active(self.bus):
            self.bus.emit(
                Shuffle(
                    job=job.name,
                    partition_records=tuple(len(b) for b in buckets),
                    partition_bytes=tuple(received_bytes),
                    total_bytes=sum(received_bytes),
                )
            )
        return buckets

    def run(self, job: MapReduceJob) -> JobResult:
        job.validate()
        stats = JobStats(job_name=job.name)
        stats.broadcast_bytes = job.cache.payload_bytes()
        self._emit_job_start(job)

        map_results = [self._map_task(job, split) for split in job.splits]
        map_outputs = self._collect_maps(stats, map_results)

        buckets = self._shuffle(job, stats, map_outputs)

        reduce_results = [
            self._reduce_task(job, r, buckets[r])
            for r in range(job.num_reducers)
        ]
        reducer_outputs = self._collect_reduces(stats, reduce_results)
        self._emit_job_end(stats)
        return JobResult(job_name=job.name, reducer_outputs=reducer_outputs, stats=stats)
