"""The admission-controlled query frontend over a :class:`SkylineIndex`.

Two execution modes share one serving core (result cache in front of
the index, typed events, documented counters):

* :class:`QueryFrontend` — the **deterministic virtual-clock mode**.
  Requests carry explicit arrival times and are replayed through a
  single-server queueing model with **weighted-fair admission**: every
  query is stamped with virtual start/finish tags on the existing
  virtual clock (the VirtualClock discipline — per-tenant
  ``vc = max(arrival, vc) + nominal / weight``) and the server picks
  the smallest finish tag, so a flooding tenant's backlog is stamped
  far into virtual time and other tenants keep their latency. A query
  is **shed** at admission when the bounded queue is full *or* its
  tenant already holds its quota of queue slots
  (:class:`TenantPolicy`), **times out** when its wait reaches the
  timeout, and otherwise runs for a virtual service time proportional
  to the *measured* work (dominance pairs charged by the index, result
  tuples copied, cache probes). With a single tenant the finish tags
  are admission-ordered, so the schedule degenerates to exactly the
  old FIFO. Given the same seeded request schedule the whole run —
  every latency, every shed, every cache hit — is byte-identical,
  which is what lets the serve-gate CI job enforce latency/throughput
  and tenant-isolation thresholds without wall-clock noise.

* :class:`ThreadedFrontend` — a thin **real-thread mode** (worker
  thread + bounded ``queue.Queue``) for demos and smoke tests. Same
  cache/quota/timeout semantics (the queue itself stays FIFO — wall
  time cannot be re-ordered deterministically), but latencies come
  from ``time.perf_counter`` and are *not* deterministic; nothing in
  CI asserts on them beyond liveness.

Timeout convention (both frontends)
-----------------------------------
The wait budget is **half-open**: a query is served iff its queueing
wait ``w`` satisfies ``0 <= w < timeout_s``; a wait of *exactly*
``timeout_s`` is rejected. The virtual frontend additionally rejects
at admission time when the earliest possible start is already out of
budget (``max(server_free, arrival) - arrival >= timeout_s``) — a
doomed query must not occupy a queue slot it can only waste.

Serving policies (virtual mode):

* ``delta`` — answer from the incrementally-maintained skyline (cache
  in front); mutations pay their measured repair work on the server's
  clock. This is the subsystem under test.
* ``recompute`` — the baseline the ISSUE's ≥10x claim is measured
  against: every cache-less query recomputes the skyline from scratch
  (the paper's sequential sort-filter over a snapshot) and pays the
  measured comparison work; mutations only pay the storage update.

Both policies run the *same* cost model, so the throughput ratio
reflects algorithmic work, not tuned constants.
"""

from __future__ import annotations

import heapq
import math
import queue as queue_module
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.dominance import DominanceCounter
from repro.core.pointset import PointSet
from repro.errors import ValidationError
from repro.mapreduce import counters as counter_names
from repro.mapreduce.counters import Counters, tenant_counter
from repro.obs.events import (
    ServeQueryRejected,
    ServeQueryServed,
    ServeQuotaUpdate,
    ServeTenantShed,
    bus_active,
)
from repro.serve.cache import ResultCache
from repro.serve.index import SkylineIndex, select_region

SERVING_POLICIES = ("delta", "recompute")

#: Response statuses (the rejection subset mirrors
#: :data:`repro.obs.events.SERVE_REJECT_REASONS`).
RESPONSE_STATUSES = ("ok", "shed", "timeout")

#: Tenant id used when a caller does not name one; with a single
#: tenant and the default policy the weighted-fair schedule reduces
#: exactly to the old FIFO.
DEFAULT_TENANT = "default"


class TenantPolicy:
    """Weights and queue quota for weighted-fair admission.

    ``weights`` maps tenant ids to relative service weights (a tenant
    with weight 2 accumulates virtual finish tags half as fast as a
    weight-1 tenant, so it gets twice the service share under
    contention). Unknown tenants fall back to ``default_weight``.

    ``quota_fraction`` bounds how much of the bounded queue any single
    tenant may occupy: a tenant already holding
    ``max(1, int(quota_fraction * queue_capacity))`` slots is shed at
    admission even when the global queue has room. The default of 1.0
    never binds, which is what keeps single-tenant replays
    byte-identical to the pre-tenancy frontend.
    """

    __slots__ = ("weights", "default_weight", "quota_fraction")

    def __init__(
        self,
        weights: Optional[Mapping[str, float]] = None,
        *,
        default_weight: float = 1.0,
        quota_fraction: float = 1.0,
    ):
        if default_weight <= 0:
            raise ValidationError(
                f"default_weight must be > 0, got {default_weight}"
            )
        if not 0.0 < quota_fraction <= 1.0:
            raise ValidationError(
                f"quota_fraction must be in (0, 1], got {quota_fraction}"
            )
        self.weights: Dict[str, float] = {}
        for tenant, weight in dict(weights or {}).items():
            if not tenant:
                raise ValidationError("tenant id must be non-empty")
            if weight <= 0:
                raise ValidationError(
                    f"tenant weight must be > 0, got {weight} for {tenant!r}"
                )
            self.weights[str(tenant)] = float(weight)
        self.default_weight = float(default_weight)
        self.quota_fraction = float(quota_fraction)

    def weight(self, tenant: str) -> float:
        return self.weights.get(tenant, self.default_weight)

    def quota_slots(self, queue_capacity: int) -> int:
        """Queue slots one tenant may hold (floored at one)."""
        return max(1, int(self.quota_fraction * queue_capacity))


@dataclass(frozen=True)
class CostModel:
    """Virtual seconds charged per unit of measured work.

    The absolute scale is arbitrary (it cancels out of the
    delta-vs-recompute throughput ratio); the *relative* weights say
    that a dominance pair and a copied result tuple cost the same, a
    cache hit skips the index entirely, and every operation pays a
    fixed dispatch overhead.
    """

    seconds_per_pair: float = 1e-7
    per_result_tuple_s: float = 1e-7
    query_base_s: float = 1e-4
    cache_hit_s: float = 1e-5
    mutation_base_s: float = 2e-5
    # Sharded-fleet constants (trailing, defaulted: positional callers
    # of the original five fields are unaffected). A fanned-out query
    # pays dispatch per shard on the router plus the *slowest* shard
    # read; mutations pay the largest per-shard repair, which is how a
    # fleet turns divided repair work into served capacity.
    shard_dispatch_s: float = 2e-6
    shard_read_base_s: float = 2e-5


@dataclass(frozen=True)
class QueryResponse:
    """Outcome of one submitted query."""

    request_id: int
    status: str  # 'ok' | 'shed' | 'timeout'
    arrival_s: float
    finish_s: float
    latency_s: float
    cache_hit: bool = False
    result_size: int = 0
    result: Optional[PointSet] = None
    tenant: str = DEFAULT_TENANT


class _ServingCore:
    """Cache + index lookup shared by both frontends."""

    def __init__(
        self,
        index: SkylineIndex,
        policy: str,
        cache_capacity: int,
        counters: Counters,
        bus,
        cost: CostModel,
    ):
        if policy not in SERVING_POLICIES:
            raise ValidationError(
                f"policy must be one of {SERVING_POLICIES}, got {policy!r}"
            )
        self.index = index
        self.policy = policy
        self.counters = counters
        self.bus = bus
        self.cost = cost
        self.cache = ResultCache(cache_capacity, counters)
        # Optional ServeTracer: assigned by the owning frontend. The
        # core contributes *relative* phases (offsets from the op's
        # future start instant); the frontend commits them.
        self.tracer = None

    def answer(self, region) -> Tuple[PointSet, bool, float]:
        """(result, cache_hit, virtual service seconds) for one query."""
        epoch = self.index.epoch
        if self.cache.capacity:
            cached = self.cache.get(epoch, region)
            if cached is not None:
                if self.tracer is not None:
                    self.tracer.phase(
                        "cache_hit",
                        0.0,
                        self.cost.cache_hit_s,
                        track="cache",
                        epoch=epoch,
                    )
                return cached, True, self.cost.cache_hit_s
        if self.policy == "delta":
            result = self.index.query(region)
            pairs = 0
        else:
            counter = DominanceCounter()
            snapshot = self.index.snapshot()
            sky = snapshot.local_skyline(counter)
            sky = sky.sort_by(sky.ids)  # the batch output convention
            self.counters.inc(counter_names.TUPLE_COMPARES, counter.pairs)
            result = select_region(sky, region)
            pairs = counter.pairs
        if self.cache.capacity:
            self.cache.put(epoch, region, result)
        duration = (
            self.cost.query_base_s
            + pairs * self.cost.seconds_per_pair
            + len(result) * self.cost.per_result_tuple_s
        )
        if self.tracer is not None:
            self.tracer.phase(
                "index_read" if self.policy == "delta" else "recompute",
                0.0,
                duration,
                track="index",
                epoch=epoch,
                pairs=pairs,
                result_size=len(result),
            )
        return result, False, duration


class QueryFrontend:
    """Deterministic virtual-clock frontend (single-server WFQ).

    Calls must arrive in nondecreasing virtual time; every entry point
    first *drains* queued queries whose service would start at or
    before the new time — so a query always sees exactly the index
    state at its start instant, even with interleaved mutations — and
    then applies its own operation. :meth:`flush` drains the remainder
    (no further mutations can precede them) and returns all responses.

    Queued queries are ordered by weighted-fair virtual finish tags
    (VirtualClock discipline): tenant ``t``'s clock advances
    ``vc_t = max(arrival, vc_t) + query_base_s / weight(t)`` per
    admitted query, and the server always picks the smallest
    ``(finish_tag, request_id)``. Because queries only queue while the
    server is busy, every queued entry could start at the same instant
    — the heap order *is* the fairness decision, and with one tenant
    it is admission order (the old FIFO), byte for byte.
    """

    def __init__(
        self,
        index: SkylineIndex,
        *,
        policy: str = "delta",
        cache_capacity: int = 128,
        queue_capacity: int = 16,
        timeout_s: float = 0.05,
        cost_model: Optional[CostModel] = None,
        tenant_policy: Optional[TenantPolicy] = None,
        counters: Optional[Counters] = None,
        bus=None,
        tracer=None,
    ):
        if queue_capacity < 1:
            raise ValidationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if timeout_s <= 0:
            raise ValidationError(f"timeout_s must be > 0, got {timeout_s}")
        self.index = index
        self.tracer = tracer
        self.queue_capacity = int(queue_capacity)
        self.timeout_s = float(timeout_s)
        self.tenant_policy = (
            tenant_policy if tenant_policy is not None else TenantPolicy()
        )
        self.counters = counters if counters is not None else index.counters
        self.bus = bus if bus is not None else index.bus
        self.core = _ServingCore(
            index,
            policy,
            cache_capacity,
            self.counters,
            self.bus,
            cost_model if cost_model is not None else CostModel(),
        )
        self.core.tracer = tracer
        # Heap of (finish_tag, request_id, arrival_s, region, tenant).
        self._queue: list = []
        self._now_s = 0.0
        self._server_free_s = 0.0
        self._next_request = 0
        self._quota_slots = self.tenant_policy.quota_slots(
            self.queue_capacity
        )
        self._tenant_vc: Dict[str, float] = {}
        self._tenant_queued: Dict[str, int] = {}
        self.responses: List[QueryResponse] = []

    @property
    def cache(self) -> ResultCache:
        return self.core.cache

    @property
    def policy(self) -> str:
        return self.core.policy

    # -- virtual-clock mechanics ---------------------------------------

    def _advance(self, at_s: float) -> None:
        if at_s < self._now_s - 1e-12:
            raise ValidationError(
                f"operations must be time-ordered: {at_s} < {self._now_s}"
            )
        self._now_s = max(self._now_s, float(at_s))
        self._drain()

    def _drain(self) -> None:
        while self._queue:
            _, request_id, arrival_s, region, tenant = self._queue[0]
            start_s = max(self._server_free_s, arrival_s)
            if start_s > self._now_s:
                break
            heapq.heappop(self._queue)
            self._tenant_queued[tenant] -= 1
            if start_s - arrival_s >= self.timeout_s:
                self._reject(
                    request_id,
                    "timeout",
                    arrival_s,
                    arrival_s + self.timeout_s,
                    tenant,
                )
                continue
            tracer = self.tracer
            ctx = (
                tracer.begin_query(request_id, tenant)
                if tracer is not None
                else None
            )
            result, cache_hit, duration = self.core.answer(region)
            finish_s = start_s + duration
            self._server_free_s = finish_s
            if ctx is not None:
                tracer.commit_query(
                    ctx,
                    arrival_s,
                    start_s,
                    finish_s,
                    cache_hit=cache_hit,
                    result_size=len(result),
                    epoch=self.index.epoch,
                )
            self._record_served(
                request_id,
                arrival_s,
                start_s,
                finish_s,
                cache_hit,
                result,
                tenant,
            )

    def _record_served(
        self, request_id, arrival_s, start_s, finish_s, cache_hit, result,
        tenant,
    ) -> None:
        latency_s = finish_s - arrival_s
        self.responses.append(
            QueryResponse(
                request_id=request_id,
                status="ok",
                arrival_s=arrival_s,
                finish_s=finish_s,
                latency_s=latency_s,
                cache_hit=cache_hit,
                result_size=len(result),
                result=result,
                tenant=tenant,
            )
        )
        self.counters.inc(counter_names.SERVE_QUERIES)
        self.counters.inc(tenant_counter(tenant, "queries"))
        if bus_active(self.bus):
            self.bus.emit(
                ServeQueryServed(
                    request_id=request_id,
                    epoch=self.index.epoch,
                    cache_hit=cache_hit,
                    latency_s=latency_s,
                    result_size=len(result),
                    source="cache" if cache_hit else "index",
                    tenant=tenant,
                    at_s=finish_s,
                    wait_s=start_s - arrival_s,
                )
            )

    def _reject(
        self, request_id, reason, arrival_s, decided_s, tenant
    ) -> None:
        self.responses.append(
            QueryResponse(
                request_id=request_id,
                status=reason,
                arrival_s=arrival_s,
                finish_s=decided_s,
                latency_s=decided_s - arrival_s,
                tenant=tenant,
            )
        )
        if reason == "shed":
            self.counters.inc(counter_names.SERVE_QUERIES_SHED)
            self.counters.inc(tenant_counter(tenant, "shed"))
        else:
            self.counters.inc(counter_names.SERVE_QUERIES_TIMED_OUT)
            self.counters.inc(tenant_counter(tenant, "timed_out"))
        if self.tracer is not None:
            self.tracer.reject_query(
                request_id, tenant, arrival_s, decided_s, reason
            )
        if bus_active(self.bus):
            self.bus.emit(
                ServeQueryRejected(
                    request_id=request_id,
                    reason=reason,
                    queue_depth=len(self._queue),
                    tenant=tenant,
                    at_s=decided_s,
                )
            )

    def _note_tenant(self, tenant: str) -> None:
        if tenant in self._tenant_vc:
            return
        self._tenant_vc[tenant] = 0.0
        self._tenant_queued.setdefault(tenant, 0)
        if bus_active(self.bus):
            self.bus.emit(
                ServeQuotaUpdate(
                    tenant=tenant,
                    weight=self.tenant_policy.weight(tenant),
                    quota_slots=self._quota_slots,
                )
            )

    # -- entry points ---------------------------------------------------

    def submit_query(
        self, at_s: float, region=None, tenant: str = DEFAULT_TENANT
    ) -> int:
        """Submit one query at virtual time ``at_s``; returns its id."""
        self._advance(at_s)
        tenant = str(tenant)
        if not tenant:
            raise ValidationError("tenant id must be non-empty")
        self._note_tenant(tenant)
        request_id = self._next_request
        self._next_request += 1
        busy = self._server_free_s > self._now_s
        if busy:
            if len(self._queue) >= self.queue_capacity:
                self._reject(request_id, "shed", at_s, at_s, tenant)
                return request_id
            queued = self._tenant_queued[tenant]
            if queued >= self._quota_slots:
                if bus_active(self.bus):
                    self.bus.emit(
                        ServeTenantShed(
                            request_id=request_id,
                            tenant=tenant,
                            queued=queued,
                            quota_slots=self._quota_slots,
                            at_s=at_s,
                        )
                    )
                self._reject(request_id, "shed", at_s, at_s, tenant)
                return request_id
            if self._server_free_s - at_s >= self.timeout_s:
                # Doomed at admission: the earliest possible start is
                # already past the wait budget, so taking a queue slot
                # could only starve an in-time successor.
                self._reject(
                    request_id,
                    "timeout",
                    at_s,
                    at_s + self.timeout_s,
                    tenant,
                )
                return request_id
        arrival = float(at_s)
        start_tag = max(arrival, self._tenant_vc[tenant])
        finish_tag = start_tag + (
            self.core.cost.query_base_s / self.tenant_policy.weight(tenant)
        )
        self._tenant_vc[tenant] = finish_tag
        self._tenant_queued[tenant] += 1
        heapq.heappush(
            self._queue, (finish_tag, request_id, arrival, region, tenant)
        )
        self._drain()
        return request_id

    def apply_insert(self, at_s: float, point, point_id=None) -> int:
        """Insert at virtual time ``at_s``; pays measured repair work."""
        self._advance(at_s)
        pid = self._apply_mutation(
            at_s, lambda: self.index.insert(point, point_id), kind="insert"
        )
        return pid

    def apply_delete(self, at_s: float, point_id: int) -> None:
        """Delete at virtual time ``at_s``; pays measured repair work."""
        self._advance(at_s)
        self._apply_mutation(
            at_s, lambda: self.index.delete(point_id), kind="delete"
        )

    def apply_batch(self, at_s: float, ops) -> None:
        """Apply a coalesced mutation batch in ONE repair pass.

        ``ops`` follows :meth:`SkylineIndex.apply_delta_batch` —
        ``("insert", point, point_id)`` / ``("delete", point_id)``.
        The whole burst pays one ``mutation_base_s`` plus its measured
        repair pairs (delta policy), and bumps the epoch once, so the
        result cache survives a write burst it would otherwise lose
        once per op. Single-process parity twin of the sharded
        frontend's batching, so capacity comparisons isolate sharding
        itself.
        """
        self._advance(at_s)
        self._apply_mutation(
            at_s, lambda: self.index.apply_delta_batch(list(ops))
        )

    def _apply_mutation(self, at_s: float, op, kind: str = "batch"):
        tracer = self.tracer
        ctx = tracer.begin_mutation(kind) if tracer is not None else None
        before = self.counters.get(counter_names.TUPLE_COMPARES)
        outcome = op()
        pairs = self.counters.get(counter_names.TUPLE_COMPARES) - before
        cost = self.core.cost
        duration = cost.mutation_base_s
        if self.core.policy == "delta":
            # The maintained index pays its repair work on the serving
            # clock; the recompute baseline stores the point and defers
            # all comparison work to query time.
            duration += pairs * cost.seconds_per_pair
        start_s = max(self._server_free_s, at_s)
        self._server_free_s = start_s + duration
        self.core.cache.invalidate_before(self.index.epoch)
        if ctx is not None:
            tracer.commit_mutation(
                ctx,
                at_s,
                start_s,
                start_s + duration,
                pairs=pairs,
                epoch=self.index.epoch,
            )
        return outcome

    def flush(self) -> List[QueryResponse]:
        """Serve every queued query and return responses by id."""
        self._now_s = math.inf
        self._drain()
        self._now_s = self._server_free_s
        return sorted(self.responses, key=lambda r: r.request_id)


class ThreadedFrontend:
    """Real-thread serving loop: one worker, bounded queue, wall clock.

    Same cache/admission/timeout semantics as the virtual mode, with
    ``time.perf_counter`` latencies (not deterministic — smoke tests
    assert liveness and bookkeeping, never exact timings).
    """

    _STOP = object()

    def __init__(
        self,
        index: SkylineIndex,
        *,
        policy: str = "delta",
        cache_capacity: int = 128,
        queue_capacity: int = 16,
        timeout_s: float = 5.0,
        tenant_policy: Optional[TenantPolicy] = None,
        counters: Optional[Counters] = None,
        bus=None,
    ):
        self.index = index  # repro: guarded-by[_lock]
        self.timeout_s = float(timeout_s)
        self.tenant_policy = (
            tenant_policy if tenant_policy is not None else TenantPolicy()
        )
        self.counters = counters if counters is not None else index.counters
        self.bus = bus if bus is not None else index.bus
        # repro: guarded-by[_lock]
        self.core = _ServingCore(
            index, policy, cache_capacity, self.counters, self.bus, CostModel()
        )
        self._queue: "queue_module.Queue" = queue_module.Queue(
            maxsize=queue_capacity
        )
        self._quota_slots = self.tenant_policy.quota_slots(
            int(queue_capacity)
        )
        self._tenant_queued: Dict[str, int] = {}  # repro: guarded-by[_lock]
        self._lock = threading.Lock()
        self._next_request = 0  # repro: guarded-by[_lock]
        self._worker: Optional[threading.Thread] = None
        self.responses: List[QueryResponse] = []  # repro: guarded-by[_lock]

    def start(self) -> "ThreadedFrontend":
        if self._worker is not None:
            raise ValidationError("frontend already started")
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()
        return self

    def submit(self, region=None, tenant: str = DEFAULT_TENANT) -> int:
        """Enqueue one query; sheds immediately when the queue is full
        or the tenant already holds its quota of queue slots."""
        tenant = str(tenant)
        if not tenant:
            raise ValidationError("tenant id must be non-empty")
        with self._lock:
            request_id = self._next_request
            self._next_request += 1
            if tenant not in self._tenant_queued:
                self._tenant_queued[tenant] = 0
                if bus_active(self.bus):
                    self.bus.emit(
                        ServeQuotaUpdate(
                            tenant=tenant,
                            weight=self.tenant_policy.weight(tenant),
                            quota_slots=self._quota_slots,
                        )
                    )
            queued = self._tenant_queued[tenant]
            over_quota = queued >= self._quota_slots
            if not over_quota:
                self._tenant_queued[tenant] = queued + 1
        arrival = time.perf_counter()
        if over_quota:
            if bus_active(self.bus):
                self.bus.emit(
                    ServeTenantShed(
                        request_id=request_id,
                        tenant=tenant,
                        queued=queued,
                        quota_slots=self._quota_slots,
                        at_s=arrival,
                    )
                )
            self._record_reject(request_id, "shed", arrival, arrival, tenant)
            return request_id
        try:
            self._queue.put_nowait((request_id, region, arrival, tenant))
        except queue_module.Full:
            with self._lock:
                self._tenant_queued[tenant] -= 1
            self._record_reject(request_id, "shed", arrival, arrival, tenant)
        return request_id

    def apply_insert(self, point, point_id=None) -> int:
        # The worker thread reads the index under _lock (_run); the
        # mutation must hold the same lock or the two race.
        with self._lock:
            pid = self.index.insert(point, point_id)
            self.core.cache.invalidate_before(self.index.epoch)
        return pid

    def apply_delete(self, point_id: int) -> None:
        with self._lock:
            self.index.delete(point_id)
            self.core.cache.invalidate_before(self.index.epoch)

    def stop(self) -> List[QueryResponse]:
        """Drain the queue, stop the worker, return responses by id."""
        self._queue.put(self._STOP)
        if self._worker is not None:
            self._worker.join()
            self._worker = None
        with self._lock:
            return sorted(self.responses, key=lambda r: r.request_id)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._STOP:
                return
            request_id, region, arrival, tenant = item
            with self._lock:
                self._tenant_queued[tenant] -= 1
            waited = time.perf_counter() - arrival
            if waited >= self.timeout_s:
                self._record_reject(
                    request_id, "timeout", arrival, time.perf_counter(), tenant
                )
                continue
            with self._lock:
                result, cache_hit, _ = self.core.answer(region)
                epoch = self.index.epoch
            finish = time.perf_counter()
            response = QueryResponse(
                request_id=request_id,
                status="ok",
                arrival_s=arrival,
                finish_s=finish,
                latency_s=finish - arrival,
                cache_hit=cache_hit,
                result_size=len(result),
                result=result,
                tenant=tenant,
            )
            with self._lock:
                self.responses.append(response)
                self.counters.inc(counter_names.SERVE_QUERIES)
                self.counters.inc(tenant_counter(tenant, "queries"))
            if bus_active(self.bus):
                self.bus.emit(
                    ServeQueryServed(
                        request_id=request_id,
                        epoch=epoch,
                        cache_hit=cache_hit,
                        latency_s=finish - arrival,
                        result_size=len(result),
                        source="cache" if cache_hit else "index",
                        tenant=tenant,
                        at_s=finish,
                        wait_s=waited,
                    )
                )

    def _record_reject(
        self, request_id, reason, arrival, decided, tenant
    ) -> None:
        response = QueryResponse(
            request_id=request_id,
            status=reason,
            arrival_s=arrival,
            finish_s=decided,
            latency_s=decided - arrival,
            tenant=tenant,
        )
        field = "shed" if reason == "shed" else "timed_out"
        name = (
            counter_names.SERVE_QUERIES_SHED
            if reason == "shed"
            else counter_names.SERVE_QUERIES_TIMED_OUT
        )
        with self._lock:
            self.responses.append(response)
            self.counters.inc(name)
            self.counters.inc(tenant_counter(tenant, field))
        if bus_active(self.bus):
            self.bus.emit(
                ServeQueryRejected(
                    request_id=request_id,
                    reason=reason,
                    queue_depth=self._queue.qsize(),
                    tenant=tenant,
                    at_s=decided,
                )
            )
