"""Concurrent engines: identical semantics to the serial engine.

* :class:`ThreadPoolEngine` — map tasks run concurrently, then reduce
  tasks, on one shared thread pool. NumPy releases the GIL in its
  kernels, so dominance-heavy tasks do overlap; determinism of the
  *result* is preserved because outputs are collected in task order and
  the shuffle is unchanged.
* :class:`ProcessPoolEngine` — tasks run in worker *processes*, so the
  remaining Python glue (per-partition loops, grouping, emission)
  parallelises too instead of serialising on the GIL. Columnar block
  splits make this practical: a split pickles as two contiguous arrays
  instead of a million Python tuples, and the distributed cache is
  broadcast once per worker (exactly Hadoop's Distributed Cache
  semantics), not once per task.

Timing is noisier than the serial engine's, which is why benches
default to the serial engine + makespan model.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing

from repro.core.shm import (
    SharedArena,
    attach_count,
    promote_cache,
    promote_splits,
    release_attachments,
)
from repro.errors import ValidationError
from repro.mapreduce.counters import (
    SHM_ATTACHES,
    SHM_BLOCKS_SHARED,
    SHM_BYTES_SHARED,
    SHM_SEGMENTS_CREATED,
    SHM_SEGMENTS_UNLINKED,
    Counters,
)
from repro.mapreduce.engine import (
    SerialEngine,
    attempt_task,
    execute_map_attempt,
    execute_reduce_attempt,
    finish_map_task,
    finish_reduce_task,
)
from repro.mapreduce.faults import FaultPlan, RetryPolicy
from repro.mapreduce.job import JobResult, MapReduceJob
from repro.mapreduce.metrics import JobStats, TaskStats
from repro.mapreduce.types import KeyValue, TaskId
from repro.obs.events import ShmArenaRetired, ShmBlocksShared, bus_active


class ThreadPoolEngine(SerialEngine):
    """Concurrent task execution; inherits combine/retry logic from
    the serial engine. One thread pool serves both phases of a job."""

    def __init__(
        self,
        max_workers: Optional[int] = None,
        max_attempts: int = 1,
        block_path: bool = True,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        speculative: bool = False,
        bus=None,
    ):
        super().__init__(
            max_attempts=max_attempts,
            block_path=block_path,
            retry=retry,
            faults=faults,
            speculative=speculative,
            bus=bus,
        )
        self.max_workers = max_workers

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(max_workers={self.max_workers}, "
            f"block_path={self.block_path})"
        )

    def run(self, job: MapReduceJob) -> JobResult:
        job.validate()
        stats = JobStats(job_name=job.name)
        stats.broadcast_bytes = job.cache.payload_bytes()
        self._emit_job_start(job)

        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            map_results = list(
                pool.map(lambda split: self._map_task(job, split), job.splits)
            )
            map_outputs = self._collect_maps(stats, map_results)

            buckets = self._shuffle(job, stats, map_outputs)

            reduce_results = list(
                pool.map(
                    lambda r: self._reduce_task(job, r, buckets[r]),
                    range(job.num_reducers),
                )
            )
        reducer_outputs = self._collect_reduces(stats, reduce_results)
        self._emit_job_end(stats)
        return JobResult(job_name=job.name, reducer_outputs=reducer_outputs, stats=stats)


# -- process-pool engine --------------------------------------------------


@dataclass
class _JobSpec:
    """The picklable subset of a job that worker processes need.

    Shipped once per *batch* of tasks. With the zero-copy substrate the
    cache's block payloads are shared-memory descriptors, so the spec
    is small and the pool can stay alive across jobs (no per-job
    initializer, no per-job worker respawn) — the in-process equivalent
    of broadcasting job configuration + Distributed Cache to every
    node before tasks start.
    """

    mapper_factory: Callable
    reducer_factory: Callable
    combiner_factory: Optional[Callable]
    num_reducers: int
    cache: Any
    sort_keys: bool
    merge_point_blocks: bool
    retry: RetryPolicy
    faults: Optional[FaultPlan]
    speculative: bool
    block_path: bool


def _worker_map_task(spec: _JobSpec, split) -> Tuple[TaskStats, List[KeyValue]]:
    task_id = TaskId("map", split.split_id)
    (ctx, output, records_in, duration), attempts = attempt_task(
        task_id,
        lambda attempt: execute_map_attempt(spec, split, task_id, spec.block_path),
        spec.retry,
        faults=spec.faults,
        speculative=spec.speculative,
    )
    return (
        finish_map_task(task_id, ctx, output, records_in, duration, attempts),
        output,
    )


def _worker_reduce_task(spec: _JobSpec, args) -> Tuple[TaskStats, List[KeyValue]]:
    r, bucket = args
    task_id = TaskId("reduce", r)
    (ctx, duration), attempts = attempt_task(
        task_id,
        lambda attempt: execute_reduce_attempt(spec, bucket, task_id),
        spec.retry,
        faults=spec.faults,
        speculative=spec.speculative,
    )
    return (
        finish_reduce_task(task_id, ctx, len(bucket), duration, attempts),
        ctx.output,
    )


#: Worker-local: value of :func:`attach_count` at the last batch report.
_ATTACHES_REPORTED = 0


def _run_task_batch(
    spec: _JobSpec,
    kind: str,
    items: Sequence,
    keep_segments: Tuple[str, ...],
) -> Tuple[List[Tuple[TaskStats, List[KeyValue]]], int]:
    """Worker entry point: run a contiguous batch of same-kind tasks.

    Items arrive (and results return) in submission order, so the
    parent can flatten batch results back into the exact task order the
    serial engine would produce — attempt histories, counters, and
    fault-plan interactions are batch-size-invariant.

    ``keep_segments`` is the current job's shared-segment allowlist:
    anything else this long-lived worker still has mapped belongs to a
    retired job and is dropped first (names are never reused, so stale
    handles would otherwise accumulate for the life of the pool).
    Returns the batch results plus how many segment attachments this
    worker performed since it last reported (the parent aggregates
    them into its ``mr.shm.attaches`` counter — workers have no
    channel to it). Attachment happens while this call's own arguments
    are unpickled, which is why the count is a delta of the process-
    wide attach counter, not a snapshot around the task loop.
    """
    global _ATTACHES_REPORTED
    release_attachments(keep=keep_segments)
    runner = _worker_map_task if kind == "map" else _worker_reduce_task
    results = [runner(spec, item) for item in items]
    total = attach_count()
    attaches = total - _ATTACHES_REPORTED
    _ATTACHES_REPORTED = total
    return results, attaches


def _contiguous_batches(items: List, num_batches: int) -> List[List]:
    """Split ``items`` into at most ``num_batches`` contiguous runs."""
    if not items:
        return []
    num_batches = max(1, min(num_batches, len(items)))
    base, extra = divmod(len(items), num_batches)
    batches, start = [], 0
    for i in range(num_batches):
        size = base + (1 if i < extra else 0)
        batches.append(items[start:start + size])
        start += size
    return batches


class ProcessPoolEngine(SerialEngine):
    """Run map and reduce tasks in worker processes, zero-copy.

    Real multi-core parallelism for the Python-level work the GIL
    serialises under :class:`ThreadPoolEngine`, rebuilt on the
    shared-memory substrate (:mod:`repro.core.shm`):

    * **Persistent pool** — workers are spawned once (lazily, on the
      first run) and reused across jobs, so chained pipelines stop
      paying process spawn + interpreter import per job.
    * **Zero-copy blocks** — each run promotes its splits' and cache's
      block payloads into a per-job :class:`SharedArena`; they cross
      the process boundary as ~100-byte descriptors and every process
      maps the same pages. Only descriptors, task stats, and
      non-block values are pickled.
    * **Batched dispatch** — tasks ship as contiguous batches (one
      spec per batch, not per task), flattened back in task order so
      results, counters, and attempt histories are bit-identical to
      the serial engine's.
    * **Arena lifecycle** — a job's segments stay linked until the
      *next* run starts (returned output views must stay valid) and
      are unlinked at :meth:`shutdown`, on engine GC, or immediately
      if the run dies. The engine-local :attr:`shm_counters` bag
      carries ``mr.shm.*`` accounting; job stats never see it, so run
      reports stay byte-identical across engines.

    The shuffle runs in the parent so partitioner placement is
    bit-identical to the serial engine. Task events cannot stream live
    across the process boundary, so the parent replays each task's
    recorded attempt history onto the bus (``replay=True``) as results
    are collected; job/shuffle/broadcast events still emit live from
    the parent.

    Wall-time of the last run is broken down in :attr:`last_phases`
    (``promote_s``/``submit_s``/``compute_s``/``transfer_s``/
    ``collect_s``) for the fast-path bench; it is diagnostic only and
    deliberately kept out of :class:`JobStats`.
    """

    #: Workers hold no channel to the parent's bus; events are replayed
    #: from recorded attempt histories in the collect phase.
    _live_task_events = False

    def __init__(
        self,
        max_workers: Optional[int] = None,
        max_attempts: int = 1,
        block_path: bool = True,
        start_method: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        speculative: bool = False,
        bus=None,
        shm: bool = True,
    ):
        super().__init__(
            max_attempts=max_attempts,
            block_path=block_path,
            retry=retry,
            faults=faults,
            speculative=speculative,
            bus=bus,
        )
        if max_workers is not None and max_workers < 1:
            raise ValidationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.max_workers = max_workers
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self.shm = shm
        self.shm_counters = Counters()
        self.last_phases: Dict[str, float] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._arena: Optional[SharedArena] = None
        self._arena_job: Optional[str] = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(max_workers={self.max_workers}, "
            f"start_method={self.start_method!r}, "
            f"block_path={self.block_path})"
        )

    def _resolved_workers(self) -> int:
        return self.max_workers or os.cpu_count() or 1

    # -- pool + arena lifecycle ---------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._resolved_workers(),
                mp_context=multiprocessing.get_context(self.start_method),
            )
        return self._pool

    def _reset_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _retire_arena(self) -> None:
        """Unlink the previous job's segments (names never leak)."""
        arena = self._arena
        if arena is None:
            return
        self._arena = None
        segments = len(arena.names)
        arena.unlink()
        self.shm_counters.inc(SHM_SEGMENTS_UNLINKED, segments)
        if bus_active(self.bus):
            self.bus.emit(
                ShmArenaRetired(
                    job=self._arena_job or "?", segments=segments
                )
            )
        self._arena_job = None

    def shutdown(self) -> None:
        """Stop the worker pool and release every shared segment."""
        self._reset_pool()
        self._retire_arena()

    def __enter__(self) -> "ProcessPoolEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.shutdown()
        except Exception:  # repro: allow[REP006] - interpreter teardown
            pass

    # -- execution ----------------------------------------------------

    def _dispatch(
        self, pool, spec, kind: str, items: List, keep: Tuple[str, ...]
    ) -> List[Tuple[TaskStats, List[KeyValue]]]:
        """Run one phase as contiguous batches; flatten in task order."""
        batches = _contiguous_batches(items, self._resolved_workers())
        t0 = perf_counter()
        futures = [
            pool.submit(_run_task_batch, spec, kind, batch, keep)
            for batch in batches
        ]
        self.last_phases["submit_s"] += perf_counter() - t0
        t1 = perf_counter()
        results: List[Tuple[TaskStats, List[KeyValue]]] = []
        for future in futures:
            batch_results, attaches = future.result()
            results.extend(batch_results)
            self.shm_counters.inc(SHM_ATTACHES, attaches)
        wait_s = perf_counter() - t1
        compute_s = sum(task.duration_s for task, _output in results)
        workers = max(1, self._resolved_workers())
        # Transfer is what waiting cost beyond the (ideally overlapped)
        # per-worker compute: descriptor/stat pickling + IPC latency.
        self.last_phases["compute_s"] += compute_s
        self.last_phases["transfer_s"] += max(0.0, wait_s - compute_s / workers)
        return results

    def run(self, job: MapReduceJob) -> JobResult:
        job.validate()
        stats = JobStats(job_name=job.name)
        stats.broadcast_bytes = job.cache.payload_bytes()
        self._emit_job_start(job)
        self.last_phases = {
            "promote_s": 0.0,
            "submit_s": 0.0,
            "compute_s": 0.0,
            "transfer_s": 0.0,
            "collect_s": 0.0,
        }

        # Outputs of the *previous* job are out of scope now: its
        # segments can finally be unlinked (views already handed out
        # stay mapped until their holders drop them).
        self._retire_arena()

        t0 = perf_counter()
        splits = list(job.splits)
        cache = job.cache
        if self.shm:
            arena = SharedArena()
            splits = promote_splits(splits, arena)
            cache = promote_cache(cache, arena)
            if arena.names:
                self._arena = arena
                self._arena_job = job.name
                self.shm_counters.inc(
                    SHM_SEGMENTS_CREATED, arena.segments_created
                )
                self.shm_counters.inc(SHM_BLOCKS_SHARED, arena.blocks_shared)
                self.shm_counters.inc(SHM_BYTES_SHARED, arena.bytes_shared)
                if bus_active(self.bus):
                    self.bus.emit(
                        ShmBlocksShared(
                            job=job.name,
                            segments=arena.segments_created,
                            blocks=arena.blocks_shared,
                            payload_bytes=arena.bytes_shared,
                        )
                    )
            else:
                arena.unlink()  # nothing promoted: no empty segment
        self.last_phases["promote_s"] = perf_counter() - t0

        spec = _JobSpec(
            mapper_factory=job.mapper_factory,
            reducer_factory=job.reducer_factory,
            combiner_factory=job.combiner_factory,
            num_reducers=job.num_reducers,
            cache=cache,
            sort_keys=job.sort_keys,
            merge_point_blocks=job.merge_point_blocks,
            retry=self.retry,
            faults=self.faults,
            speculative=self.speculative,
            block_path=self.block_path,
        )
        keep = self._arena.names if self._arena is not None else ()
        pool = self._ensure_pool()
        try:
            map_results = self._dispatch(pool, spec, "map", splits, keep)
            t2 = perf_counter()
            map_outputs = self._collect_maps(stats, map_results)
            buckets = self._shuffle(job, stats, map_outputs)
            self.last_phases["collect_s"] += perf_counter() - t2

            reduce_items = [(r, buckets[r]) for r in range(job.num_reducers)]
            reduce_results = self._dispatch(
                pool, spec, "reduce", reduce_items, keep
            )
            t3 = perf_counter()
            reducer_outputs = self._collect_reduces(stats, reduce_results)
            self.last_phases["collect_s"] += perf_counter() - t3
        except BrokenProcessPool:
            # A worker died mid-job (crash/kill). The pool is unusable
            # and this job's outputs will never materialise: drop both
            # so nothing leaks, then surface the failure.
            self._reset_pool()
            self._retire_arena()
            raise
        except BaseException:  # repro: allow[REP006] - cleanup, re-raised
            self._retire_arena()
            raise
        self._emit_job_end(stats)
        return JobResult(job_name=job.name, reducer_outputs=reducer_outputs, stats=stats)
