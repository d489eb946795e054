"""Hierarchical job counters (the Hadoop counter facility).

Counter names are dotted strings, e.g. ``skyline.partition_compares``.
The Figure 11 reproduction reads the per-task maxima of
``skyline.partition_compares`` to obtain "the mapper and the reducer
that have the highest number of comparisons".
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Mapping, Pattern

from repro.errors import ValidationError


class Counters:
    """A mergeable bag of named monotonic integer counters."""

    __slots__ = ("_values",)

    def __init__(self, initial: Mapping[str, int] = None):
        self._values: Dict[str, int] = dict(initial or {})

    def inc(self, name: str, amount: int = 1) -> None:
        if not name:
            raise ValidationError("counter name must be non-empty")
        amount = int(amount)
        if amount < 0:
            raise ValidationError(
                f"counters are monotonic: cannot inc {name!r} by {amount}"
            )
        self._values[name] = self._values.get(name, 0) + amount

    def __getitem__(self, name: str) -> int:
        return self._values.get(name, 0)

    def get(self, name: str, default: int = 0) -> int:
        return self._values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def merge(self, other: "Counters") -> None:
        for name, value in other._values.items():
            self._values[name] = self._values.get(name, 0) + value

    def as_dict(self) -> Dict[str, int]:
        return dict(self._values)

    def group(self, prefix: str) -> Dict[str, int]:
        """All counters under a dotted prefix, prefix stripped."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return {
            name[len(dotted):]: value
            for name, value in self._values.items()
            if name.startswith(dotted)
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Counters({inner})"


#: Canonical counter names used across the library.
RECORDS_IN = "mr.records_in"
RECORDS_OUT = "mr.records_out"
SHUFFLE_BYTES = "mr.shuffle_bytes"
TASK_RETRIES = "mr.task_retries"
SPECULATIVE_ATTEMPTS = "mr.speculative_attempts"
NODE_LOSS_REEXECS = "mr.node_loss_reexecs"
PARTITION_COMPARES = "skyline.partition_compares"
TUPLE_COMPARES = "skyline.tuple_compares"
TUPLES_PRUNED_BY_BITSTRING = "skyline.tuples_pruned_by_bitstring"
LOCAL_SKYLINE_SIZE = "skyline.local_skyline_size"

#: Zero-copy substrate counters (:mod:`repro.core.shm`), charged on the
#: engine's own bag — never into job stats, which must stay
#: byte-identical across engines.
SHM_SEGMENTS_CREATED = "mr.shm.segments_created"
SHM_SEGMENTS_UNLINKED = "mr.shm.segments_unlinked"
SHM_BLOCKS_SHARED = "mr.shm.blocks_shared"
SHM_BYTES_SHARED = "mr.shm.bytes_shared"
SHM_ATTACHES = "mr.shm.attaches"

#: Serving-layer counters (:mod:`repro.serve`).
SERVE_QUERIES = "serve.queries"
SERVE_CACHE_HITS = "serve.cache_hits"
SERVE_CACHE_MISSES = "serve.cache_misses"
SERVE_CACHE_EVICTIONS = "serve.cache_evictions"
SERVE_QUERIES_SHED = "serve.queries_shed"
SERVE_QUERIES_TIMED_OUT = "serve.queries_timed_out"
SERVE_INSERTS = "serve.inserts"
SERVE_DELETES = "serve.deletes"
SERVE_DELTA_REPAIRS = "serve.delta_repairs"
SERVE_BATCH_REFRESHES = "serve.batch_refreshes"

#: Sharded-fleet counters (:mod:`repro.serve.shard`).
SERVE_SHARD_QUERIES_FANNED = "serve.shard.queries_fanned_out"
SERVE_SHARD_DELTA_BATCHES = "serve.shard.delta_batches"
SERVE_SHARD_BATCHED_OPS = "serve.shard.batched_ops"
SERVE_SHARD_REPLICATED_POINTS = "serve.shard.replicated_points"
SERVE_SHARD_RESHARDS = "serve.shard.reshards"

#: Per-tenant serving counters are a *family*: one counter per
#: ``(tenant, field)`` pair, named through :func:`tenant_counter` so
#: every charge site produces a name matching the documented
#: ``serve.tenant.<tenant>.<field>`` template (the placeholder form is
#: what COUNTER_DOCS and the metric registry list — tenant ids are
#: data, not vocabulary).
TENANT_COUNTER_FIELDS = ("queries", "shed", "timed_out")

#: The documented placeholder spellings of the per-tenant family.
SERVE_TENANT_QUERIES = "serve.tenant.<tenant>.queries"
SERVE_TENANT_SHED = "serve.tenant.<tenant>.shed"
SERVE_TENANT_TIMED_OUT = "serve.tenant.<tenant>.timed_out"


def tenant_counter(tenant: str, field: str) -> str:
    """Dotted per-tenant counter name: ``serve.tenant.<tenant>.<field>``.

    ``field`` must come from :data:`TENANT_COUNTER_FIELDS`; the tenant
    id is free-form (it is workload data). Centralising the spelling
    keeps every charge site inside the documented family.
    """
    if field not in TENANT_COUNTER_FIELDS:
        raise ValidationError(
            f"tenant counter field must be one of "
            f"{TENANT_COUNTER_FIELDS}, got {field!r}"
        )
    if not tenant:
        raise ValidationError("tenant id must be non-empty")
    return f"serve.tenant.{tenant}.{field}"


#: Builder functions whose return values are instances of a documented
#: counter family. The REP003 lint accepts ``Counters.inc(<builder>(…))``
#: charge sites for exactly these callees — any other computed name is
#: flagged, so dynamic counters can't silently drift out of the
#: documented vocabulary.
COUNTER_FAMILY_BUILDERS = ("tenant_counter",)


def counter_family_regexes() -> Dict[str, Pattern[str]]:
    """Compiled regex per documented counter *family*.

    A :data:`COUNTER_DOCS` key containing ``<placeholder>`` segments
    documents a family rather than a single counter; each placeholder
    matches exactly one dotted-name segment, so
    ``serve.tenant.<tenant>.queries`` covers every concrete tenant id
    (tenant ids are workload data, not vocabulary). Keys without
    placeholders are not returned — they match exactly or not at all.
    """
    families: Dict[str, Pattern[str]] = {}
    for name in COUNTER_DOCS:
        if "<" not in name:
            continue
        pattern = re.sub(r"<[^<>]+>", r"[^.]+", re.escape(name))
        families[name] = re.compile(pattern)
    return families


def matches_counter_family(name: str) -> bool:
    """True when ``name`` instantiates a documented counter family."""
    return any(
        regex.fullmatch(name) for regex in counter_family_regexes().values()
    )


#: One-line documentation per canonical counter. The observability
#: metric registry (:mod:`repro.obs.metrics`) and ``repro-skyline list
#: --counters`` read this mapping, so the docs cannot drift from the
#: names the engines actually charge.
COUNTER_DOCS = {
    RECORDS_IN: "Records consumed by tasks (map inputs + reduce inputs).",
    RECORDS_OUT: "Records emitted by tasks (map outputs + reduce outputs).",
    SHUFFLE_BYTES: "Bytes of map output moved through the shuffle.",
    TASK_RETRIES: "Failed task attempts that were re-executed.",
    SPECULATIVE_ATTEMPTS: "Speculative backup copies that won their race.",
    NODE_LOSS_REEXECS: "Re-executions caused by simulated node losses.",
    PARTITION_COMPARES: (
        "Partition-pair comparisons (the Section 6 cost-model quantity; "
        "Figure 11 plots the per-task maxima)."
    ),
    TUPLE_COMPARES: "Tuple-pair dominance tests across all skyline stages.",
    TUPLES_PRUNED_BY_BITSTRING: (
        "Tuples discarded because their partition's bitstring bit was 0."
    ),
    LOCAL_SKYLINE_SIZE: "Tuples surviving into partition-local skylines.",
    SERVE_QUERIES: "Skyline queries admitted and answered by the frontend.",
    SERVE_CACHE_HITS: "Queries answered straight from the result cache.",
    SERVE_CACHE_MISSES: "Queries that had to consult the skyline index.",
    SERVE_CACHE_EVICTIONS: "Result-cache entries evicted (LRU or epoch).",
    SERVE_QUERIES_SHED: (
        "Queries rejected by admission control (bounded queue full)."
    ),
    SERVE_QUERIES_TIMED_OUT: (
        "Admitted queries dropped because their deadline passed in queue."
    ),
    SERVE_INSERTS: "Point inserts applied to the skyline index.",
    SERVE_DELETES: "Point deletes applied to the skyline index.",
    SERVE_DELTA_REPAIRS: (
        "Deletes of skyline members repaired from the dominated-region "
        "cells instead of a full recompute."
    ),
    SERVE_BATCH_REFRESHES: (
        "Full batch recomputes triggered by the staleness budget "
        "(MR-GPSRS/MR-GPMRS through the configured engine)."
    ),
    SHM_SEGMENTS_CREATED: (
        "Shared-memory segments created by the zero-copy substrate."
    ),
    SHM_SEGMENTS_UNLINKED: (
        "Shared-memory segments unlinked (lifecycle completed, no leak)."
    ),
    SHM_BLOCKS_SHARED: (
        "PointSet blocks re-homed into shared memory (splits + cache)."
    ),
    SHM_BYTES_SHARED: (
        "Bytes of block data placed in shared segments instead of being "
        "pickled per process hop."
    ),
    SHM_ATTACHES: (
        "Segment attachments performed when materialising block "
        "descriptors received from another process."
    ),
    SERVE_SHARD_QUERIES_FANNED: (
        "Per-shard sub-queries dispatched by the sharded router "
        "(fan-out; one query may touch several shards)."
    ),
    SERVE_SHARD_DELTA_BATCHES: (
        "Coalesced delta batches applied across the shard fleet."
    ),
    SERVE_SHARD_BATCHED_OPS: (
        "Individual insert/delete operations absorbed inside coalesced "
        "delta batches."
    ),
    SERVE_SHARD_REPLICATED_POINTS: (
        "Extra copies of points stored because their cell belongs to "
        "more than one independent-group shard (Figure 6 replication)."
    ),
    SERVE_SHARD_RESHARDS: (
        "Full fleet rebuilds triggered by a point landing in a cell no "
        "shard's group covers."
    ),
    SERVE_TENANT_QUERIES: (
        "Queries admitted and answered for one tenant (per-tenant "
        "family; names produced by tenant_counter())."
    ),
    SERVE_TENANT_SHED: (
        "Queries shed for one tenant — the global queue was full or "
        "the tenant exceeded its quota of queue slots."
    ),
    SERVE_TENANT_TIMED_OUT: (
        "Queries dropped for one tenant because their wait reached "
        "the timeout (at admission or in queue)."
    ),
}
