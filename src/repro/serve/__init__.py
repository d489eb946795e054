"""repro.serve — the incremental skyline serving layer.

The batch pipelines answer "what is the skyline of this dataset";
``repro.serve`` keeps answering while the dataset changes and queries
arrive concurrently:

* :class:`SkylineIndex` (:mod:`repro.serve.index`) — the batch
  substrate (grid, global bitstring, per-cell buckets, skyline) kept
  exact under ``insert``/``delete`` deltas, with a bounded local
  repair for deletes and a staleness-budget batch refresh that reuses
  MR-GPSRS/MR-GPMRS through the existing engines;
* :class:`ResultCache` (:mod:`repro.serve.cache`) — LRU results keyed
  on (dataset epoch, constraint region), epoch-invalidated on deltas;
* :class:`QueryFrontend` / :class:`ThreadedFrontend`
  (:mod:`repro.serve.frontend`) — admission control with a bounded
  weighted-fair queue (per-tenant virtual start/finish tags and
  quotas via :class:`TenantPolicy`), timeouts, and load shedding;
  deterministic under a seeded schedule on the virtual clock, with a
  real-thread mode for demos;
* :data:`SERVE_WORKLOADS` (:mod:`repro.serve.workloads`) — seeded
  load generators + the replay driver behind ``repro-skyline serve``
  and ``benchmarks/bench_serve.py``;
* :class:`ShardedSkylineIndex` / :class:`ShardedFrontend`
  (:mod:`repro.serve.shard`) — the index partitioned by independent
  groups (Lemma 2) across shards behind the one router (routing,
  delta batching, owned-id merge, snapshot, reshard) with one global
  epoch; exact by construction, scales write-heavy capacity with the
  shard count. Its shards have two transports: in-process
  :class:`SkylineIndex` objects, or
* :class:`SkylineFleet` (:mod:`repro.serve.fleet`) — the same router
  with one worker process per shard behind RPC stubs, initial shard
  datasets shipped zero-copy through :mod:`repro.core.shm`.

See ``docs/serving.md`` for the design and the correctness argument.
"""

from repro.serve.cache import ResultCache, region_key
from repro.serve.frontend import (
    DEFAULT_TENANT,
    RESPONSE_STATUSES,
    SERVING_POLICIES,
    CostModel,
    QueryFrontend,
    QueryResponse,
    TenantPolicy,
    ThreadedFrontend,
)
from repro.serve.fleet import FleetError, SkylineFleet
from repro.serve.index import (
    DEFAULT_STALENESS_BUDGET,
    REFRESH_ALGORITHMS,
    SkylineIndex,
)
from repro.serve.shard import (
    ShardedFrontend,
    ShardedSkylineIndex,
    ShardPlan,
    UncoveredCellError,
    plan_shards,
)
from repro.serve.workloads import (
    ARRIVAL_SHAPES,
    SERVE_WORKLOADS,
    OpStream,
    ServeWorkload,
    build_serve_report,
    exact_percentile,
    generate_ops,
    op_tenant,
    replay,
    run_workload,
    serve_stream,
    tenant_name,
)

__all__ = [
    "ARRIVAL_SHAPES",
    "CostModel",
    "DEFAULT_STALENESS_BUDGET",
    "DEFAULT_TENANT",
    "FleetError",
    "OpStream",
    "QueryFrontend",
    "QueryResponse",
    "REFRESH_ALGORITHMS",
    "RESPONSE_STATUSES",
    "ResultCache",
    "SERVE_WORKLOADS",
    "SERVING_POLICIES",
    "ServeWorkload",
    "ShardPlan",
    "ShardedFrontend",
    "ShardedSkylineIndex",
    "SkylineFleet",
    "SkylineIndex",
    "TenantPolicy",
    "ThreadedFrontend",
    "UncoveredCellError",
    "build_serve_report",
    "exact_percentile",
    "generate_ops",
    "op_tenant",
    "plan_shards",
    "region_key",
    "replay",
    "run_workload",
    "serve_stream",
    "tenant_name",
]
