"""Typed runtime events and the :class:`EventBus` they travel on.

Every engine (serial, thread-pool, process-pool), the fault layer, and
the pipeline drivers publish the same small vocabulary of structured
events: job boundaries, per-attempt task lifecycles (with outcome,
straggler slowdown, and simulated node), shuffle and broadcast traffic,
injected faults, speculative launches, and pipeline completion.
Subscribers — the span tracer, the metrics collector, or anything a
user plugs in — receive each event synchronously, in emission order.

Overhead budget
---------------
The bus is designed to vanish when nobody listens:

* engines hold ``bus=None`` by default — emission sites are guarded by
  a single ``is not None`` test, so the default configuration pays a
  few nanoseconds per task;
* with a bus attached but **no subscriber**, every emission site checks
  :attr:`EventBus.active` *before* constructing the event object, so
  the cost is one attribute read and one truthiness test per site —
  benchmarked below 2% end-to-end by ``benchmarks/bench_obs_overhead.py``;
* with subscribers attached, dispatch is a lock plus one callback per
  subscriber per event (the span tracer budget is < 10% end-to-end).

Events are plain frozen dataclasses; ``kind`` is the stable wire name
documented in :mod:`repro.obs.schema` and used by the Chrome-trace
exporter and the run-report writer. Events replayed after the fact
(the process-pool engine cannot stream live events across the process
boundary, so the parent re-emits them from the recorded attempt
history) carry ``replay=True``; their sequence and payloads match the
live emission exactly, only wall-clock placement is synthetic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Event:
    """Base class: every event has a stable ``kind`` wire name."""

    kind = "event"

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload


@dataclass(frozen=True)
class PipelineStart(Event):
    """A skyline pipeline (chain of jobs) is about to run."""

    kind = "pipeline_start"
    algorithm: str


@dataclass(frozen=True)
class PipelineEnd(Event):
    """A pipeline finished: headline numbers for subscribers."""

    kind = "pipeline_end"
    algorithm: str
    jobs: int
    wall_s: float
    simulated_s: Optional[float] = None
    skyline_size: Optional[int] = None


@dataclass(frozen=True)
class JobStart(Event):
    kind = "job_start"
    job: str
    num_mappers: int
    num_reducers: int


@dataclass(frozen=True)
class JobEnd(Event):
    """Job finished; ``stats`` is the live JobStats (treat read-only)."""

    kind = "job_end"
    job: str
    stats: Any = None


@dataclass(frozen=True)
class Broadcast(Event):
    """Distributed-cache payload shipped to every node at job start."""

    kind = "broadcast"
    job: str
    payload_bytes: int
    num_keys: int


@dataclass(frozen=True)
class Shuffle(Event):
    """Map outputs partitioned into reducer buckets.

    ``partition_records``/``partition_bytes`` are per-reducer-bucket
    (index = reducer), the quantities behind the shuffle-skew
    histograms; ``total_bytes`` matches the job's shuffle-byte counter.
    """

    kind = "shuffle"
    job: str
    partition_records: Tuple[int, ...]
    partition_bytes: Tuple[int, ...]
    total_bytes: int


@dataclass(frozen=True)
class TaskAttemptStart(Event):
    kind = "task_attempt_start"
    job: Optional[str]
    task_id: str
    attempt: int
    node: Optional[int] = None
    speculative: bool = False
    replay: bool = False


#: Outcome vocabulary of task-attempt events — kept identical to
#: :data:`repro.mapreduce.metrics.ATTEMPT_OUTCOMES` (pinned by test).
ATTEMPT_EVENT_OUTCOMES = ("success", "failed", "killed", "speculative")


@dataclass(frozen=True)
class TaskAttemptEnd(Event):
    """One attempt finished; outcome vocabulary matches AttemptRecord
    (``success`` / ``failed`` / ``killed`` / ``speculative``).

    ``speculative`` marks the *backup copy* of a straggler race —
    regardless of outcome, so a crashed backup (outcome ``failed``)
    still pairs with its speculative :class:`TaskAttemptStart`."""

    kind = "task_attempt_end"
    job: Optional[str]
    task_id: str
    attempt: int
    outcome: str
    duration_s: float = 0.0
    slowdown: float = 1.0
    error: Optional[str] = None
    node: Optional[int] = None
    speculative: bool = False
    replay: bool = False


@dataclass(frozen=True)
class FaultInjected(Event):
    """The fault plan killed (or will slow) an attempt."""

    kind = "fault_injected"
    job: Optional[str]
    task_id: str
    attempt: int
    error: str
    node: Optional[int] = None
    replay: bool = False


@dataclass(frozen=True)
class SpeculationLaunched(Event):
    """A backup copy of a straggler attempt was launched."""

    kind = "speculation_launched"
    job: Optional[str]
    task_id: str
    attempt: int
    node: Optional[int] = None
    backup_node: Optional[int] = None
    replay: bool = False


#: Rejection vocabulary of :class:`ServeQueryRejected`.
SERVE_REJECT_REASONS = ("shed", "timeout")


@dataclass(frozen=True)
class ServeQueryServed(Event):
    """The serving frontend answered one skyline query.

    ``latency_s`` is on the frontend's clock — the deterministic
    virtual clock under a replayed schedule, wall time in threaded
    mode. ``source`` says where the answer came from (``cache`` /
    ``index``). ``at_s`` is the finish instant on the same clock and
    ``wait_s`` the queueing share of the latency — the fields the SLO
    monitor's fixed windows and wait histograms key on."""

    kind = "serve_query_served"
    request_id: int
    epoch: int
    cache_hit: bool
    latency_s: float
    result_size: int
    source: str = "index"
    tenant: str = "default"
    at_s: float = 0.0
    wait_s: float = 0.0


@dataclass(frozen=True)
class ServeQueryRejected(Event):
    """A query was refused: shed at admission or expired in queue."""

    kind = "serve_query_rejected"
    request_id: int
    reason: str  # 'shed' | 'timeout'
    queue_depth: int = 0
    tenant: str = "default"
    at_s: float = 0.0


@dataclass(frozen=True)
class ServeDeltaApplied(Event):
    """One insert/delete absorbed by the index's delta path."""

    kind = "serve_delta_applied"
    op: str  # 'insert' | 'delete'
    point_id: int
    cell: int
    epoch: int
    bit_flipped: bool = False
    repair_candidates: int = 0
    skyline_size: int = 0


@dataclass(frozen=True)
class ServeBatchRefresh(Event):
    """The staleness budget triggered a full batch recompute."""

    kind = "serve_batch_refresh"
    epoch: int
    deltas_absorbed: int
    algorithm: str
    skyline_size: int = 0


@dataclass(frozen=True)
class ShmBlocksShared(Event):
    """Block payloads re-homed into shared memory for one job.

    Emitted by the process-pool engine after promoting splits and
    cache blocks: the job's data now crosses process boundaries as
    descriptors, and ``payload_bytes`` is the volume that was *not*
    pickled per hop."""

    kind = "shm_blocks_shared"
    job: str
    segments: int
    blocks: int
    payload_bytes: int


@dataclass(frozen=True)
class ShmArenaRetired(Event):
    """A job arena's segments were unlinked (lifecycle completed)."""

    kind = "shm_arena_retired"
    job: str
    segments: int


@dataclass(frozen=True)
class ServeDeltaBatch(Event):
    """A coalesced burst of deltas applied in one repair pass.

    ``max_shard_pairs`` is the largest per-shard repair work of the
    batch — the quantity that bounds the fleet's parallel (virtual)
    service time."""

    kind = "serve_delta_batch"
    ops: int
    inserts: int
    deletes: int
    epoch: int
    shards_touched: int = 1
    max_shard_pairs: int = 0
    skyline_size: int = 0


@dataclass(frozen=True)
class ServeReshard(Event):
    """The sharded router rebuilt its fleet (coverage exhausted)."""

    kind = "serve_reshard"
    reason: str
    shards: int
    groups: int
    epoch: int


@dataclass(frozen=True)
class ServeTenantShed(Event):
    """Admission shed a query because its *tenant* was over quota.

    Fires in addition to :class:`ServeQueryRejected` (which records the
    query-level outcome): the global queue still had room, but the
    tenant already held ``quota_slots`` of the bounded queue, so
    weighted-fair admission refused to let it crowd out the others."""

    kind = "serve_tenant_shed"
    request_id: int
    tenant: str
    queued: int
    quota_slots: int
    at_s: float = 0.0


@dataclass(frozen=True)
class ServeQuotaUpdate(Event):
    """A tenant's fair-queueing parameters were (re)established.

    Emitted when a frontend first sees a tenant: its WFQ weight and
    the number of bounded-queue slots its quota allows."""

    kind = "serve_quota_update"
    tenant: str
    weight: float
    quota_slots: int


#: Every event type, keyed by wire name (drives the schema module).
EVENT_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        PipelineStart,
        PipelineEnd,
        JobStart,
        JobEnd,
        Broadcast,
        Shuffle,
        TaskAttemptStart,
        TaskAttemptEnd,
        FaultInjected,
        SpeculationLaunched,
        ServeQueryServed,
        ServeQueryRejected,
        ServeDeltaApplied,
        ServeBatchRefresh,
        ShmBlocksShared,
        ShmArenaRetired,
        ServeDeltaBatch,
        ServeReshard,
        ServeTenantShed,
        ServeQuotaUpdate,
    )
}


class EventBus:
    """Synchronous pub/sub for runtime events.

    Subscribers are objects with an ``on_event(event)`` method or bare
    callables; they are invoked in subscription order under one lock
    (the thread-pool engine emits from worker threads). Emission sites
    must guard with :attr:`active` before *constructing* events so an
    attached-but-unobserved bus stays within the documented < 2%
    overhead budget.
    """

    __slots__ = ("_handlers", "_lock")

    def __init__(self):
        self._handlers: List[Callable[[Event], None]] = []
        self._lock = threading.Lock()

    @property
    def active(self) -> bool:
        """True iff at least one subscriber is attached."""
        return bool(self._handlers)

    def subscribe(self, subscriber):
        """Attach a subscriber; returns it for chaining."""
        handler = getattr(subscriber, "on_event", None)
        if handler is None:
            if not callable(subscriber):
                raise TypeError(
                    f"subscriber {subscriber!r} has no on_event method "
                    "and is not callable"
                )
            handler = subscriber
        with self._lock:
            self._handlers.append(handler)
        return subscriber

    def unsubscribe(self, subscriber) -> None:
        handler = getattr(subscriber, "on_event", None) or subscriber
        with self._lock:
            self._handlers.remove(handler)

    def emit(self, event: Event) -> None:
        if not self._handlers:
            return
        # Dispatch under the lock: the thread-pool engine emits from
        # worker threads, and subscribers (histograms, span tables)
        # rely on serialized delivery.
        with self._lock:
            for handler in self._handlers:
                handler(event)


class EventLog:
    """The simplest subscriber: records every event (tests, debugging)."""

    def __init__(self):
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)

    def kinds(self) -> List[str]:
        return [e.kind for e in self.events]

    def of_kind(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]


def bus_active(bus: Optional[EventBus]) -> bool:
    """One cheap guard for every emission site: the telemetry layer's
    documented overhead budget requires that no event object is even
    constructed unless a subscriber is attached."""
    return bus is not None and bus.active


def replay_task_events(bus: EventBus, job: Optional[str], task_stats) -> None:
    """Re-emit one task's attempt lifecycle from its recorded history.

    Used by engines that cannot stream live task events (worker
    processes have no channel back to the parent's bus): the sequence
    of typed events — including fault injections and speculative
    launches reconstructed from the attempt outcomes — matches the live
    emission; only wall-clock placement is synthetic, which the events
    flag with ``replay=True``.
    """
    if not bus.active:
        return
    task_id = str(task_stats.task_id)
    for record in task_stats.attempts:
        if record.outcome == "speculative":
            bus.emit(
                SpeculationLaunched(
                    job=job,
                    task_id=task_id,
                    attempt=record.attempt,
                    backup_node=record.node,
                    replay=True,
                )
            )
        bus.emit(
            TaskAttemptStart(
                job=job,
                task_id=task_id,
                attempt=record.attempt,
                node=record.node,
                speculative=record.outcome == "speculative",
                replay=True,
            )
        )
        if record.error is not None and record.error.startswith(
            ("InjectedTaskFailure", "NodeLostError")
        ):
            bus.emit(
                FaultInjected(
                    job=job,
                    task_id=task_id,
                    attempt=record.attempt,
                    error=record.error,
                    node=record.node,
                    replay=True,
                )
            )
        bus.emit(
            TaskAttemptEnd(
                job=job,
                task_id=task_id,
                attempt=record.attempt,
                outcome=record.outcome,
                duration_s=record.duration_s,
                slowdown=record.slowdown,
                error=record.error,
                node=record.node,
                speculative=record.outcome == "speculative",
                replay=True,
            )
        )
