"""Seeded serve workloads: op-stream generators and the replay driver.

A workload is a *recipe* — initial dataset distribution, op mix,
arrival process, admission limits — and :func:`generate_ops` turns it
into a concrete, fully deterministic op stream under a seed: every
arrival time, query region, inserted point, and deleted id is drawn
from one ``numpy`` generator, so the same ``(workload, seed)`` pair
replays byte-identically (the property the oracle tests and the
serve-gate CI job rely on).

:func:`replay` feeds a stream through a frontend and
:func:`build_serve_report` reduces the responses to the headline
serving numbers (throughput, exact p50/p99 latency, cache hit rate,
shed/timeout rates) that ``repro-skyline serve`` prints and
``benchmarks/bench_serve.py`` writes to ``BENCH_serve.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.generators import generate
from repro.errors import ValidationError
from repro.obs.slo import exact_percentile
from repro.serve.frontend import (
    DEFAULT_TENANT,
    QueryFrontend,
    QueryResponse,
    TenantPolicy,
)
from repro.serve.index import SkylineIndex

#: Op-stream entries: ("query", t, region) / ("insert", t, point, id) /
#: ("delete", t, id); multi-tenant workloads append the tenant id as a
#: trailing element on every op (single-tenant streams keep the bare
#: shapes, so pre-tenancy replays stay byte-identical).
Op = Tuple

#: Arrival processes a workload can request. ``poisson`` is the flat
#: exponential process; ``diurnal`` modulates the rate sinusoidally
#: over the stream (the day/night curve, compressed to virtual time);
#: ``flash-crowd`` multiplies the rate by ``flash_factor`` inside a
#: fractional window of the stream while the tenant mixture collapses
#: toward the hot tenant. The ``burst`` square wave composes on top.
ARRIVAL_SHAPES = ("poisson", "diurnal", "flash-crowd")


def tenant_name(index: int) -> str:
    """Canonical tenant id for position ``index``: ``t0``, ``t1``, …

    ``t0`` is always the most popular (and, in flash-crowd traces, the
    hot) tenant — Zipf popularity is assigned in index order.
    """
    return f"t{index}"


@dataclass(frozen=True)
class ServeWorkload:
    """One named serving scenario (see :data:`SERVE_WORKLOADS`)."""

    name: str
    description: str
    distribution: str = "independent"
    cardinality: int = 500
    dimensionality: int = 2
    num_ops: int = 400
    query_fraction: float = 0.9
    region_fraction: float = 0.5
    region_pool: int = 8
    mean_interarrival_s: float = 2e-4
    burst: bool = False
    queue_capacity: int = 16
    timeout_s: float = 0.05
    cache_capacity: int = 64
    staleness_budget: int = 128
    #: Multi-tenancy: ops are attributed to ``tenants`` ids whose
    #: popularity follows a Zipf law with exponent ``tenant_skew``
    #: (tenant ``t0`` most popular). ``tenant_quota`` is the fraction
    #: of the bounded queue any one tenant may occupy (1.0 = quotas
    #: never bind); ``shed_bound`` is the aggregate shed rate the
    #: serve-gate allows for this workload.
    tenants: int = 1
    tenant_skew: float = 1.1
    tenant_quota: float = 1.0
    arrival_shape: str = "poisson"
    diurnal_amplitude: float = 0.8
    diurnal_cycles: float = 2.0
    flash_factor: float = 8.0
    flash_window: Tuple[float, float] = (0.4, 0.6)
    hot_tenant_share: float = 0.9
    shed_bound: float = 1.0

    def scaled(self, factor: float) -> "ServeWorkload":
        """Shrink/grow the workload (``--quick`` benchmark runs).

        The admission knobs scale *with* the op volume — a quarter-size
        replay against a full-size queue, cache, and staleness budget
        would report distorted shed and hit rates — floored so scaling
        never produces a degenerate frontend (a zero-slot queue or an
        instantly-stale index).
        """
        return replace(
            self,
            cardinality=max(16, int(self.cardinality * factor)),
            num_ops=max(32, int(self.num_ops * factor)),
            queue_capacity=max(2, int(self.queue_capacity * factor)),
            cache_capacity=(
                max(2, int(self.cache_capacity * factor))
                if self.cache_capacity > 0
                else 0
            ),
            staleness_budget=max(16, int(self.staleness_budget * factor)),
        )

    def tenant_policy(self) -> TenantPolicy:
        """The frontend admission policy this workload implies."""
        return TenantPolicy(quota_fraction=self.tenant_quota)


#: The registry `repro-skyline list` enumerates and the bench loads.
SERVE_WORKLOADS: Dict[str, ServeWorkload] = {
    workload.name: workload
    for workload in (
        ServeWorkload(
            name="read-heavy",
            description=(
                "95% queries over a slowly-drifting independent dataset; "
                "the cache does most of the serving."
            ),
            query_fraction=0.95,
            region_fraction=0.6,
        ),
        ServeWorkload(
            name="write-heavy",
            description=(
                "Half the stream is inserts/deletes; exercises the delta "
                "path, epoch invalidation, and the staleness budget."
            ),
            query_fraction=0.5,
            region_fraction=0.4,
            staleness_budget=64,
        ),
        ServeWorkload(
            name="mixed-anticorrelated",
            description=(
                "80/20 read/write over anticorrelated data (large "
                "skylines): the hard case for delete repair."
            ),
            distribution="anticorrelated",
            dimensionality=3,
            query_fraction=0.8,
            region_fraction=0.5,
            mean_interarrival_s=5e-4,
        ),
        ServeWorkload(
            name="bursty-shed",
            description=(
                "Square-wave arrival bursts against a short queue and a "
                "tight timeout; exercises load shedding."
            ),
            query_fraction=0.97,
            region_fraction=0.3,
            cache_capacity=4,
            queue_capacity=4,
            timeout_s=2e-3,
            mean_interarrival_s=1e-4,
            burst=True,
        ),
        ServeWorkload(
            name="multi-tenant-diurnal",
            description=(
                "Eight Zipf-popular tenants on a diurnal arrival curve "
                "behind per-tenant quotas; exercises weighted-fair "
                "admission under a production-shaped day/night load."
            ),
            query_fraction=0.9,
            region_fraction=0.5,
            mean_interarrival_s=2e-4,
            tenants=8,
            tenant_skew=1.1,
            tenant_quota=0.5,
            arrival_shape="diurnal",
            shed_bound=0.5,
        ),
        ServeWorkload(
            name="flash-crowd",
            description=(
                "One hot Zipfian tenant flash-crowds the middle of the "
                "trace at 8x rate against a short queue and tight "
                "quotas; the fairness gate pins the cold tenants' p99."
            ),
            query_fraction=0.95,
            region_fraction=0.4,
            cache_capacity=8,
            queue_capacity=8,
            timeout_s=4e-3,
            mean_interarrival_s=2e-4,
            tenants=6,
            tenant_skew=1.2,
            tenant_quota=0.25,
            arrival_shape="flash-crowd",
            flash_factor=8.0,
            flash_window=(0.4, 0.6),
            hot_tenant_share=0.9,
            shed_bound=0.6,
        ),
    )
}


@dataclass
class OpStream:
    """A generated workload instance: initial data + timed operations."""

    workload: ServeWorkload
    seed: int
    initial_data: np.ndarray
    ops: List[Op] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {"query": 0, "insert": 0, "delete": 0}
        for op in self.ops:
            out[op[0]] += 1
        return out


def _region_pool(
    rng: np.random.Generator, workload: ServeWorkload
) -> List[Tuple[Tuple[float, ...], Tuple[float, ...]]]:
    pool = []
    for _ in range(workload.region_pool):
        centre = rng.random(workload.dimensionality)
        half = 0.15 + 0.2 * rng.random()
        lows = np.clip(centre - half, 0.0, 1.0)
        highs = np.clip(centre + half, 0.0, 1.0)
        pool.append((tuple(lows.tolist()), tuple(highs.tolist())))
    return pool


def _zipf_cumprobs(workload: ServeWorkload) -> np.ndarray:
    """Cumulative Zipf popularity over tenants ``t0`` … ``tN-1``."""
    ranks = np.arange(1, workload.tenants + 1, dtype=np.float64)
    raw = ranks ** -workload.tenant_skew
    return np.cumsum(raw / raw.sum())


def _flash_cumprobs(workload: ServeWorkload) -> np.ndarray:
    """In-window mixture: the hot tenant ``t0`` takes
    ``hot_tenant_share``; the rest split the remainder by their base
    Zipf popularity, renormalised."""
    cum = _zipf_cumprobs(workload)
    probs = np.diff(cum, prepend=0.0)
    cold = probs[1:]
    cold = cold / cold.sum() * (1.0 - workload.hot_tenant_share)
    return np.cumsum(
        np.concatenate(([workload.hot_tenant_share], cold))
    )


def generate_ops(workload: ServeWorkload, seed: int = 0) -> OpStream:
    """Materialise a workload into a deterministic op stream.

    Single-tenant workloads draw exactly the same random sequence as
    before tenancy existed (no tenant draws at all), so their streams
    are byte-identical across versions; multi-tenant workloads spend
    one extra uniform per op on the tenant and append it to the op
    tuple.
    """
    if workload.num_ops < 1:
        raise ValidationError("workload needs at least one operation")
    if workload.arrival_shape not in ARRIVAL_SHAPES:
        raise ValidationError(
            f"arrival_shape must be one of {ARRIVAL_SHAPES}, "
            f"got {workload.arrival_shape!r}"
        )
    if workload.tenants < 1:
        raise ValidationError(
            f"tenants must be >= 1, got {workload.tenants}"
        )
    if not 0.0 < workload.hot_tenant_share < 1.0:
        raise ValidationError(
            f"hot_tenant_share must be in (0, 1), "
            f"got {workload.hot_tenant_share}"
        )
    lo, hi = workload.flash_window
    if not 0.0 <= lo < hi <= 1.0:
        raise ValidationError(
            f"flash_window must satisfy 0 <= lo < hi <= 1, "
            f"got {workload.flash_window}"
        )
    rng = np.random.default_rng(seed)
    initial = generate(
        workload.distribution,
        workload.cardinality,
        workload.dimensionality,
        seed=rng,
    )
    pool = _region_pool(rng, workload)
    live: List[int] = list(range(workload.cardinality))
    next_id = workload.cardinality
    write_fraction = 1.0 - workload.query_fraction
    multi_tenant = workload.tenants > 1
    base_cum = _zipf_cumprobs(workload) if multi_tenant else None
    flash_cum = (
        _flash_cumprobs(workload)
        if multi_tenant and workload.arrival_shape == "flash-crowd"
        else base_cum
    )

    ops: List[Op] = []
    now = 0.0
    for position in range(workload.num_ops):
        gap = workload.mean_interarrival_s
        if workload.burst:
            # Square wave: 50-op bursts at 10x rate, then 50 slow ops.
            gap = gap / 10.0 if (position // 50) % 2 == 0 else gap * 2.0
        frac = position / workload.num_ops
        in_flash = (
            workload.arrival_shape == "flash-crowd" and lo <= frac < hi
        )
        if workload.arrival_shape == "diurnal":
            # Sinusoidal rate modulation — the day/night curve; the
            # amplitude stays < 1 so the rate never hits zero.
            gap /= 1.0 + workload.diurnal_amplitude * math.sin(
                2.0 * math.pi * workload.diurnal_cycles * frac
            )
        elif in_flash:
            gap /= workload.flash_factor
        now += float(rng.exponential(gap))
        tenant = None
        if multi_tenant:
            cum = flash_cum if in_flash else base_cum
            idx = int(np.searchsorted(cum, rng.random(), side="right"))
            tenant = tenant_name(min(idx, workload.tenants - 1))
        draw = rng.random()
        if draw < workload.query_fraction or len(live) < 2:
            region = None
            if rng.random() < workload.region_fraction:
                region = pool[int(rng.integers(0, len(pool)))]
            op: Op = ("query", now, region)
        elif draw < workload.query_fraction + write_fraction / 2.0:
            point = generate(
                workload.distribution, 1, workload.dimensionality, seed=rng
            )[0]
            op = ("insert", now, tuple(point.tolist()), next_id)
            live.append(next_id)
            next_id += 1
        else:
            victim = live.pop(int(rng.integers(0, len(live))))
            op = ("delete", now, victim)
        ops.append(op + (tenant,) if tenant is not None else op)
    return OpStream(workload=workload, seed=seed, initial_data=initial, ops=ops)


#: Bare op-tuple arity per kind; a longer tuple carries the tenant id.
_OP_ARITY = {"query": 3, "insert": 4, "delete": 3}


def op_tenant(op: Op) -> str:
    """The tenant an op is attributed to (default for bare tuples)."""
    arity = _OP_ARITY.get(op[0])
    if arity is None:
        raise ValidationError(f"unknown op kind {op[0]!r}")
    return op[arity] if len(op) > arity else DEFAULT_TENANT


def replay(frontend: QueryFrontend, stream: OpStream) -> List[QueryResponse]:
    """Feed an op stream through a virtual-clock frontend and flush.

    Queries carry their tenant into admission; mutations are not
    admission-controlled (their tenant attribution exists for trace
    filtering, e.g. the fairness gate's no-hot-tenant baseline).
    """
    for op in stream.ops:
        kind = op[0]
        if kind == "query":
            frontend.submit_query(op[1], op[2], op_tenant(op))
        elif kind == "insert":
            frontend.apply_insert(op[1], op[2], op[3])
        elif kind == "delete":
            frontend.apply_delete(op[1], op[2])
        else:
            raise ValidationError(f"unknown op kind {kind!r}")
    return frontend.flush()


def build_serve_report(
    stream: OpStream,
    frontend: QueryFrontend,
    responses: Sequence[QueryResponse],
) -> Dict:
    """Headline serving numbers for one replayed stream."""
    ok = [r for r in responses if r.status == "ok"]
    shed = sum(1 for r in responses if r.status == "shed")
    timed_out = sum(1 for r in responses if r.status == "timeout")
    latencies = [r.latency_s for r in ok]
    if responses:
        first_arrival = min(r.arrival_s for r in responses)
        last_finish = max(r.finish_s for r in ok) if ok else max(
            r.finish_s for r in responses
        )
        makespan = max(last_finish - first_arrival, 1e-12)
    else:
        makespan = 1e-12
    index = frontend.index
    report = {
        "workload": stream.workload.name,
        "seed": stream.seed,
        "policy": frontend.policy,
        "shards": getattr(index, "num_shards", 1),
        "ops": stream.counts(),
        "queries_submitted": len(responses),
        "queries_served": len(ok),
        "queries_shed": shed,
        "queries_timed_out": timed_out,
        "cache_hit_rate": round(frontend.cache.hit_rate(), 6),
        "p50_latency_s": exact_percentile(latencies, 0.50),
        "p99_latency_s": exact_percentile(latencies, 0.99),
        "makespan_s": makespan,
        "queries_per_s": len(ok) / makespan,
        "final_epoch": index.epoch,
        "final_skyline_size": len(index.skyline()),
        "batch_refreshes": index.refreshes,
    }
    tenants = sorted({r.tenant for r in responses})
    if stream.workload.tenants > 1 or tenants not in ([], [DEFAULT_TENANT]):
        per_tenant: Dict[str, Dict] = {}
        for t in tenants:
            mine = [r for r in responses if r.tenant == t]
            served = [r.latency_s for r in mine if r.status == "ok"]
            per_tenant[t] = {
                "submitted": len(mine),
                "served": len(served),
                "shed": sum(1 for r in mine if r.status == "shed"),
                "timed_out": sum(
                    1 for r in mine if r.status == "timeout"
                ),
                "p50_latency_s": exact_percentile(served, 0.50),
                "p99_latency_s": exact_percentile(served, 0.99),
            }
        report["tenants"] = per_tenant
    return report


def resolve_workload(
    workload,
    *,
    scale: float = 1.0,
    tenants: Optional[int] = None,
) -> ServeWorkload:
    """Resolve a workload name/object plus the CLI-style overrides.

    Exposed so observability callers (the CLI's SLO monitor needs the
    *effective* workload before the replay starts) resolve overrides
    exactly the way :func:`run_workload` does.
    """
    if isinstance(workload, str):
        if workload not in SERVE_WORKLOADS:
            raise ValidationError(
                f"unknown serve workload {workload!r}; "
                f"available: {sorted(SERVE_WORKLOADS)}"
            )
        workload = SERVE_WORKLOADS[workload]
    if scale != 1.0:
        workload = workload.scaled(scale)
    if tenants is not None:
        workload = replace(workload, tenants=int(tenants))
    return workload


def run_workload(
    workload,
    *,
    seed: int = 0,
    policy: str = "delta",
    shards: Optional[int] = None,
    engine=None,
    cluster=None,
    counters=None,
    bus=None,
    scale: float = 1.0,
    tenants: Optional[int] = None,
    tracer=None,
    fleet: bool = False,
    batch_window_s: Optional[float] = None,
    artifacts: Optional[Dict] = None,
) -> Tuple[Dict, QueryFrontend]:
    """Build index + frontend for a workload, replay it, report.

    ``workload`` is a name from :data:`SERVE_WORKLOADS` or a
    :class:`ServeWorkload`. The ``recompute`` policy disables the cache
    (a recompute-per-query baseline has nothing sound to cache between
    deltas at these write rates; the comparison stays work-vs-work).
    With ``shards`` set, the same stream is served by a
    :class:`~repro.serve.shard.ShardedSkylineIndex` behind the batching
    :class:`~repro.serve.shard.ShardedFrontend` — results stay exact
    (the shard oracle tests pin this), only capacity changes.
    """
    workload = resolve_workload(workload, scale=scale, tenants=tenants)
    stream = generate_ops(workload, seed)
    return serve_stream(
        stream,
        policy=policy,
        shards=shards,
        engine=engine,
        cluster=cluster,
        counters=counters,
        bus=bus,
        tracer=tracer,
        fleet=fleet,
        batch_window_s=batch_window_s,
        artifacts=artifacts,
    )


def serve_stream(
    stream: OpStream,
    *,
    policy: str = "delta",
    shards: Optional[int] = None,
    engine=None,
    cluster=None,
    counters=None,
    bus=None,
    tracer=None,
    fleet: bool = False,
    batch_window_s: Optional[float] = None,
    artifacts: Optional[Dict] = None,
) -> Tuple[Dict, QueryFrontend]:
    """Serve an already-materialised op stream; report + frontend.

    The split from :func:`run_workload` exists so callers (the bench's
    fairness gate) can *edit* a generated stream — e.g. drop the hot
    tenant's queries to build a no-hot-tenant baseline — and replay the
    result under identical frontend configuration.

    ``tracer`` attaches a :class:`~repro.obs.serve_trace.ServeTracer`
    (pure observer — virtual timings are unchanged). With ``fleet``
    (requires ``shards``), the sharded frontend drives a real
    :class:`~repro.serve.fleet.SkylineFleet` instead of the in-process
    index: worker span records are drained into the tracer and the
    fleet is stopped before returning (the returned frontend's index
    answers no further RPCs). ``batch_window_s`` overrides the sharded
    frontend's coalescing window (0 disables batching — the
    shards=1-parity configuration). ``artifacts``, when given, is
    filled with the intermediate objects (``stream``, ``responses``,
    ``frontend``, ``final_skyline``) observability callers need —
    ``final_skyline`` matters for fleet runs, where the index stops
    answering once this function returns.
    """
    workload = stream.workload
    if fleet and shards is None:
        raise ValidationError("fleet serving requires shards")
    if shards is not None:
        from repro.serve.shard import ShardedFrontend, ShardedSkylineIndex

        if fleet:
            from repro.serve.fleet import SkylineFleet

            index = SkylineFleet(
                stream.initial_data,
                num_shards=shards,
                staleness_budget=workload.staleness_budget,
                counters=counters,
                bus=bus,
                tracer=tracer,
                reshard=True,
            )
        else:
            index = ShardedSkylineIndex(
                stream.initial_data,
                num_shards=shards,
                staleness_budget=workload.staleness_budget,
                engine=engine,
                cluster=cluster,
                counters=counters,
                bus=bus,
            )
    else:
        index = SkylineIndex(
            stream.initial_data,
            staleness_budget=workload.staleness_budget,
            engine=engine,
            cluster=cluster,
            counters=counters,
            bus=bus,
        )
    # From here on a fleet (worker processes + shared arena) may be
    # live: everything that can raise — including frontend
    # construction, which validates its policy/queue configuration —
    # must run inside the try so the finally always retires it.
    try:
        if shards is not None:
            shard_kwargs = {}
            if batch_window_s is not None:
                shard_kwargs["batch_window_s"] = batch_window_s
            frontend = ShardedFrontend(
                index,
                policy=policy,
                cache_capacity=(
                    workload.cache_capacity if policy == "delta" else 0
                ),
                queue_capacity=workload.queue_capacity,
                timeout_s=workload.timeout_s,
                tenant_policy=workload.tenant_policy(),
                tracer=tracer,
                **shard_kwargs,
            )
        else:
            frontend = QueryFrontend(
                index,
                policy=policy,
                cache_capacity=(
                    workload.cache_capacity if policy == "delta" else 0
                ),
                queue_capacity=workload.queue_capacity,
                timeout_s=workload.timeout_s,
                tenant_policy=workload.tenant_policy(),
                tracer=tracer,
            )
        responses = replay(frontend, stream)
        report = build_serve_report(stream, frontend, responses)
        # Snapshot before the fleet (if any) is stopped; skyline() is
        # memoized at the final epoch so this costs nothing extra.
        final_skyline = index.skyline()
    finally:
        if fleet:
            if tracer is not None:
                for s, recs in index.drain_span_records().items():
                    tracer.ingest_fleet_records(s, recs)
            index.stop()
    if artifacts is not None:
        artifacts["stream"] = stream
        artifacts["responses"] = responses
        artifacts["frontend"] = frontend
        artifacts["final_skyline"] = final_skyline
    return report, frontend
