"""A process-backed shard fleet: one OS process per skyline shard.

:class:`~repro.serve.shard.ShardedSkylineIndex` proves the routing and
exactness story in one process; :class:`SkylineFleet` is the same plan
(:func:`~repro.serve.shard.plan_shards` — identical grid, groups, and
owner tie-breaks) stretched across real worker processes:

* each worker hosts one :class:`~repro.serve.index.SkylineIndex` and
  talks to the router over a duplex :class:`multiprocessing.Pipe`
  (synchronous request/response — the router is the only client, so a
  queue buys nothing but reordering hazards);
* the initial per-shard datasets travel as **zero-copy shared-memory
  blocks** (:meth:`repro.core.shm.SharedArena.share_blocks`): the
  router packs every shard's ids+values into one segment and pickles
  only descriptors into the spawn args — workers map the segment
  read-only and copy their slice exactly once, into their own index
  storage. The arena is retired on :meth:`stop`, and the lifecycle
  tests assert no segment outlives the fleet;
* deltas route to covering shards exactly like the in-process index; a
  batch becomes at most one repair RPC per shard. Inserts outside
  every group's coverage raise
  :class:`~repro.serve.shard.UncoveredCellError` by default — tearing
  down live workers mid-stream is a deployment event, not a data-path
  one. Pass ``reshard=True`` to opt into in-place resharding (the
  serving pipeline does: the fleet snapshots itself, respawns around
  the new coverage, and emits :class:`~repro.obs.events.ServeReshard`);
* every data RPC carries the router's current
  :class:`~repro.obs.serve_trace.TraceContext` (or ``None`` when no
  tracer is attached). Workers **batch span records** —
  ``(rpc_seq, op, ctx, work)`` — locally and hand them back over the
  same pipe when the router drains them
  (:meth:`drain_span_records` / ``("spans",)``), so a
  :class:`~repro.obs.serve_trace.ServeTracer` can stitch worker spans
  into the one multi-process trace by request id.

The fleet is wall-clock real (no virtual time): it exists to prove the
sharded serving plan survives process boundaries and to host the
lifecycle tests; capacity claims are made by the deterministic
virtual-clock :class:`~repro.serve.shard.ShardedFrontend` — which can
drive a fleet directly (the fleet duck-types the sharded index's read
and delta surface: ``query``/``snapshot``/``shard_contributions``/
``last_shard_pairs``/``refreshes``).
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.order import as_dataset
from repro.core.pointset import PointSet
from repro.core.shm import SharedArena
from repro.errors import ValidationError
from repro.mapreduce import counters as counter_names
from repro.mapreduce.counters import Counters
from repro.obs.events import ServeReshard, bus_active
from repro.serve.index import SkylineIndex, select_region
from repro.serve.shard import (
    ShardPlan,
    UncoveredCellError,
    plan_shards,
)


def _shard_worker(
    conn, block, dimensionality: int, staleness_budget: Optional[int]
) -> None:
    """Worker loop: build the shard index, answer RPCs until 'stop'.

    ``block`` arrives as a :class:`~repro.core.shm.ShmBlock` descriptor
    (or ``None`` for an empty shard) — unpickling it maps the shared
    segment; the index constructor copies the slice into private
    storage, so the segment's pages are never needed again (the cached
    mapping simply dies with the process; the router owns the name).

    Data RPCs carry a trailing trace context. The worker has no clock
    of its own — it appends ``(rpc_seq, op, ctx, work)`` to a local
    batch in RPC order and ships the batch back when the router sends
    ``("spans",)``; the router rebases the records onto the virtual
    interval it registered for the same context.
    """
    kwargs = {}
    if staleness_budget is not None:
        kwargs["staleness_budget"] = staleness_budget
    if block is not None:
        index = SkylineIndex(
            np.array(block.values, dtype=np.float64),
            point_ids=np.array(block.ids, dtype=np.int64),
            **kwargs,
        )
    else:
        index = SkylineIndex(dimensionality=dimensionality, **kwargs)
    del block  # drop the shared mapping; the index owns its copies
    records: List[Tuple] = []
    rpc_seq = 0
    while True:
        try:
            msg = conn.recv()
        except EOFError:  # router died; nothing left to serve
            return
        op = msg[0]
        try:
            if op == "stop":
                conn.send(("ok", None))
                return
            elif op == "spans":
                conn.send(("ok", records))
                records = []
                continue
            elif op == "stats":
                conn.send(
                    (
                        "ok",
                        {
                            "refreshes": index.refreshes,
                            "points": len(index),
                            "skyline": len(index.skyline()),
                        },
                    )
                )
                continue
            rpc_seq += 1
            if op == "insert":
                _, row, pid, ctx = msg
                before = index.counters.get(counter_names.TUPLE_COMPARES)
                index.insert(row, pid)
                work = (
                    index.counters.get(counter_names.TUPLE_COMPARES)
                    - before
                )
                if ctx is not None:
                    records.append((rpc_seq, "insert", ctx, work))
                conn.send(("ok", work))
            elif op == "delete":
                _, pid, ctx = msg
                before = index.counters.get(counter_names.TUPLE_COMPARES)
                index.delete(pid)
                work = (
                    index.counters.get(counter_names.TUPLE_COMPARES)
                    - before
                )
                if ctx is not None:
                    records.append((rpc_seq, "delete", ctx, work))
                conn.send(("ok", work))
            elif op == "batch":
                _, ops, ctx = msg
                pairs = index.apply_delta_batch(ops)
                if ctx is not None:
                    records.append((rpc_seq, "batch", ctx, pairs))
                conn.send(("ok", pairs))
            elif op == "skyline":
                ctx = msg[1] if len(msg) > 1 else None
                sky = index.skyline()
                if ctx is not None:
                    records.append((rpc_seq, "skyline", ctx, len(sky)))
                conn.send(("ok", (sky.ids.copy(), sky.values.copy())))
            elif op == "snapshot":
                ctx = msg[1] if len(msg) > 1 else None
                snap = index.snapshot()
                if ctx is not None:
                    records.append((rpc_seq, "snapshot", ctx, len(snap)))
                conn.send(("ok", (snap.ids.copy(), snap.values.copy())))
            else:
                conn.send(("err", f"unknown op {op!r}"))
        except Exception as exc:  # repro: allow[REP006] - relayed to router
            conn.send(("err", f"{type(exc).__name__}: {exc}"))


class FleetError(RuntimeError):
    """A worker reported a failure or died mid-request."""


class SkylineFleet:
    """Router + one shard process per reducer group.

    Mirrors the :class:`~repro.serve.shard.ShardedSkylineIndex` data
    path (same plan, same covering/owner routing, same id-ordered
    merge) over real processes. Use as a context manager — workers and
    the shared-memory arena are released on :meth:`stop`.
    """

    def __init__(
        self,
        data,
        *,
        num_shards: int,
        ppd: Optional[int] = None,
        start_method: Optional[str] = None,
        counters: Optional[Counters] = None,
        bus=None,
        tracer=None,
        staleness_budget: Optional[int] = None,
        reshard: bool = False,
    ):
        if num_shards < 1:
            raise ValidationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        values = as_dataset(data)
        if values.shape[0] == 0:
            raise ValidationError(
                "SkylineFleet needs a non-empty initial dataset"
            )
        self.counters = counters if counters is not None else Counters()
        self.bus = bus
        self.tracer = tracer
        self.staleness_budget = staleness_budget
        self._reshard_enabled = bool(reshard)
        self._start_method = start_method
        self._ppd = ppd
        self._requested_shards = int(num_shards)
        self._d = int(values.shape[1])
        self.epoch = 0
        #: Per-shard repair pairs of the last mutating call — the same
        #: duck-typed attribute :class:`ShardedSkylineIndex` exposes,
        #: so the sharded frontend's cost model (charge the *largest*
        #: per-shard repair) works over a process fleet too.
        self.last_shard_pairs: Dict[int, int] = {}
        self._stopped = False
        self._conns: List = []
        self._procs: List = []
        self._sky_cache: Optional[PointSet] = None
        self._sky_cache_epoch = -1
        self._contributions: List[int] = []
        self._refreshes_cache = 0
        ids = np.arange(values.shape[0], dtype=np.int64)
        self._build(ids, values)

    def _build(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Plan shards, pack the arena, spawn one worker per shard."""
        self._plan: ShardPlan = plan_shards(
            values, self._requested_shards, ppd=self._ppd
        )
        self._next_id = int(ids.max()) + 1 if len(ids) else 0
        self._sky_cache = None
        self._sky_cache_epoch = -1
        self._contributions = []

        cells = self._plan.grid.cell_indices(values)
        n_shards = self._plan.num_shards
        shard_ids: List[List[int]] = [[] for _ in range(n_shards)]
        shard_rows: List[List[np.ndarray]] = [[] for _ in range(n_shards)]
        self._owner: Dict[int, int] = {}
        self._members: Dict[int, Tuple[int, ...]] = {}
        route_cache: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        replicated = 0
        for pos in range(values.shape[0]):
            pid = int(ids[pos])
            cell = int(cells[pos])
            route = route_cache.get(cell)
            if route is None:
                route = self._plan.route_cell(cell)
                route_cache[cell] = route
            shards, owner = route
            self._owner[pid] = owner
            self._members[pid] = shards
            replicated += len(shards) - 1
            for s in shards:
                shard_ids[s].append(pid)
                shard_rows[s].append(values[pos])
        self.counters.inc(
            counter_names.SERVE_SHARD_REPLICATED_POINTS, replicated
        )

        # Ship every shard's dataset through ONE shared segment: the
        # pickled spawn args carry descriptors, not arrays.
        self._arena = SharedArena()
        payload: List[Optional[PointSet]] = []
        blocks = []
        for s in range(n_shards):
            if shard_ids[s]:
                blocks.append(
                    PointSet(
                        np.asarray(shard_ids[s], dtype=np.int64),
                        np.vstack(shard_rows[s]),
                    )
                )
            else:
                blocks.append(None)
        shared = self._arena.share_blocks([b for b in blocks if b is not None])
        it = iter(shared)
        for b in blocks:
            payload.append(next(it) if b is not None else None)

        ctx = (
            multiprocessing.get_context(self._start_method)
            if self._start_method
            else multiprocessing.get_context()
        )
        self._conns = []
        self._procs = []
        try:
            for s in range(n_shards):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child, payload[s], self._d, self.staleness_budget),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:  # repro: allow[REP006] - cleanup, re-raised
            self.stop()
            raise

    # -- lifecycle ------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._procs)

    def __len__(self) -> int:
        return len(self._owner)

    def __enter__(self) -> "SkylineFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop every worker and release the shared-memory arena."""
        if self._stopped:
            return
        self._stopped = True
        self._shutdown_workers()

    def _shutdown_workers(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(5.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)
        self._conns = []
        self._procs = []
        self._arena.unlink()

    def _call(self, shard: int, msg: Tuple):
        if self._stopped:
            raise FleetError("fleet is stopped")
        conn = self._conns[shard]
        try:
            conn.send(msg)
            status, payload = conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise FleetError(
                f"shard {shard} worker died during {msg[0]!r}"
            ) from exc
        if status != "ok":
            raise FleetError(f"shard {shard}: {payload}")
        return payload

    def _ctx(self):
        return self.tracer.current_ctx if self.tracer is not None else None

    # -- reshard --------------------------------------------------------

    def _reshard_with(self, extra: Tuple[int, np.ndarray]) -> None:
        """Respawn the fleet around current live points + one new one."""
        if self.tracer is not None:
            # The outgoing workers hold span records for committed ops;
            # stitch them in now or the respawn drops them.
            for s, recs in self.drain_span_records().items():
                self.tracer.ingest_fleet_records(s, recs)
        snap = self.snapshot()
        pid, row = extra
        ids = np.append(snap.ids, np.int64(pid))
        values = (
            np.vstack([snap.values, row[None, :]])
            if len(snap)
            else row[None, :]
        )
        order = np.argsort(ids, kind="stable")
        self._refreshes_cache = self.refreshes
        self._shutdown_workers()
        self._build(ids[order], values[order])
        self.last_shard_pairs = {}
        self.counters.inc(counter_names.SERVE_SHARD_RESHARDS)
        if bus_active(self.bus):
            self.bus.emit(
                ServeReshard(
                    reason="uncovered",
                    shards=self.num_shards,
                    groups=self._plan.num_shards,
                    epoch=self.epoch + 1,
                )
            )

    # -- data path ------------------------------------------------------

    def insert(self, point, point_id: Optional[int] = None) -> int:
        row = np.asarray(point, dtype=np.float64).ravel()
        if row.shape[0] != self._d:
            raise ValidationError(
                f"point has {row.shape[0]} dimensions, fleet has {self._d}"
            )
        pid = self._next_id if point_id is None else int(point_id)
        if pid in self._owner:
            raise ValidationError(f"point id {pid} already present")
        cell = self._plan.grid.cell_index(row)
        try:
            shards, owner = self._plan.route_cell(cell)
        except UncoveredCellError:
            if not self._reshard_enabled:
                raise
            self._reshard_with((pid, row))
            self.counters.inc(counter_names.SERVE_INSERTS)
            self.epoch += 1
            return pid
        self._next_id = max(self._next_id, pid + 1)
        ctx = self._ctx()
        pairs: Dict[int, int] = {}
        for s in shards:
            pairs[s] = int(self._call(s, ("insert", row, pid, ctx)))
        self.last_shard_pairs = {s: p for s, p in pairs.items() if p}
        self._owner[pid] = owner
        self._members[pid] = shards
        self.counters.inc(counter_names.SERVE_INSERTS)
        self.counters.inc(
            counter_names.SERVE_SHARD_REPLICATED_POINTS, len(shards) - 1
        )
        self.epoch += 1
        return pid

    def delete(self, point_id: int) -> None:
        pid = int(point_id)
        if pid not in self._owner:
            raise ValidationError(f"unknown point id {pid}")
        ctx = self._ctx()
        pairs: Dict[int, int] = {}
        for s in self._members.pop(pid):
            pairs[s] = int(self._call(s, ("delete", pid, ctx)))
        self.last_shard_pairs = {s: p for s, p in pairs.items() if p}
        del self._owner[pid]
        self.counters.inc(counter_names.SERVE_DELETES)
        self.epoch += 1

    def apply_delta_batch(self, ops: List[Tuple]) -> Dict[int, int]:
        """One repair RPC per touched shard; per-shard pairs returned."""
        if not ops:
            return {}
        per_shard: Dict[int, List[Tuple]] = {}
        routed: List[Tuple] = []
        for op in ops:
            if op[0] == "insert":
                _k, point, pid = op
                row = np.asarray(point, dtype=np.float64).ravel()
                if row.shape[0] != self._d:
                    raise ValidationError(
                        f"point has {row.shape[0]} dimensions, fleet "
                        f"has {self._d}"
                    )
                if pid is None:
                    pid = self._next_id
                pid = int(pid)
                cell = self._plan.grid.cell_index(row)
                try:
                    shards, owner = self._plan.route_cell(cell)
                except UncoveredCellError:
                    if not self._reshard_enabled:
                        raise
                    return self._sequential_fallback(ops)
                self._next_id = max(self._next_id, pid + 1)
                for s in shards:
                    per_shard.setdefault(s, []).append(("insert", row, pid))
                routed.append(("insert", pid, shards, owner))
            elif op[0] == "delete":
                pid = int(op[1])
                members = self._members.get(pid)
                if members is None:
                    entry = next(
                        (
                            r
                            for r in reversed(routed)
                            if r[0] == "insert" and r[1] == pid
                        ),
                        None,
                    )
                    if entry is None:
                        raise ValidationError(f"unknown point id {pid}")
                    members = entry[2]
                for s in members:
                    per_shard.setdefault(s, []).append(("delete", pid))
                routed.append(("delete", pid, members, None))
            else:
                raise ValidationError(f"unknown delta op {op[0]!r}")
        ctx = self._ctx()
        pairs: Dict[int, int] = {}
        for s in sorted(per_shard):
            pairs[s] = int(self._call(s, ("batch", per_shard[s], ctx)))
        self.last_shard_pairs = dict(pairs)
        inserts = deletes = 0
        for entry in routed:
            if entry[0] == "insert":
                _k, pid, shards, owner = entry
                self._owner[pid] = owner
                self._members[pid] = shards
                self.counters.inc(
                    counter_names.SERVE_SHARD_REPLICATED_POINTS,
                    len(shards) - 1,
                )
                inserts += 1
            else:
                _k, pid, _shards, _owner = entry
                self._members.pop(pid, None)
                self._owner.pop(pid, None)
                deletes += 1
        self.counters.inc(counter_names.SERVE_INSERTS, inserts)
        self.counters.inc(counter_names.SERVE_DELETES, deletes)
        self.counters.inc(counter_names.SERVE_SHARD_DELTA_BATCHES)
        self.counters.inc(counter_names.SERVE_SHARD_BATCHED_OPS, len(ops))
        self.epoch += 1
        return pairs

    def _sequential_fallback(self, ops: List[Tuple]) -> Dict[int, int]:
        """Apply a batch op-by-op (an insert needs a reshard mid-batch)."""
        merged: Dict[int, int] = {}
        for op in ops:
            if op[0] == "insert":
                self.insert(op[1], op[2])
            else:
                self.delete(op[1])
            for s, p in self.last_shard_pairs.items():
                merged[s] = max(merged.get(s, 0), p)
        self.last_shard_pairs = merged
        return merged

    # -- read side ------------------------------------------------------

    def skyline(self) -> PointSet:
        """Fan out, filter to owned ids, merge in id order.

        Memoized per epoch, like the in-process sharded index: repeat
        queries between deltas reuse the merged result (and the cached
        per-shard contribution sizes the cost model reads).
        """
        if self._sky_cache_epoch == self.epoch:
            return self._sky_cache
        ctx = self._ctx()
        parts: List[PointSet] = []
        contributions: List[int] = []
        for s in range(self.num_shards):
            ids, values = self._call(s, ("skyline", ctx))
            if len(ids):
                owned = np.fromiter(
                    (self._owner.get(int(pid)) == s for pid in ids),
                    dtype=bool,
                    count=len(ids),
                )
                parts.append(PointSet(ids, values).select(owned))
            else:
                parts.append(PointSet(ids, values))
            contributions.append(len(parts[-1]))
        self.counters.inc(
            counter_names.SERVE_SHARD_QUERIES_FANNED, self.num_shards
        )
        merged = PointSet.concat(parts)
        self._sky_cache = merged.select(
            np.argsort(merged.ids, kind="stable")
        )
        self._sky_cache_epoch = self.epoch
        self._contributions = contributions
        return self._sky_cache

    def skyline_ids(self) -> np.ndarray:
        return self.skyline().ids.copy()

    def shard_contributions(self) -> List[int]:
        """Owned skyline members per shard (current epoch)."""
        self.skyline()
        return list(self._contributions)

    def query(self, region: Optional[Tuple] = None) -> PointSet:
        """Skyline members inside a constraint box (router merge)."""
        return select_region(self.skyline(), region)

    def snapshot(self) -> PointSet:
        """All live points (deduplicated via ownership), ids ascending."""
        ctx = self._ctx()
        rows: Dict[int, np.ndarray] = {}
        for s in range(self.num_shards):
            ids, values = self._call(s, ("snapshot", ctx))
            for pos in range(len(ids)):
                pid = int(ids[pos])
                if self._owner.get(pid) == s:
                    rows[pid] = values[pos]
        if not rows:
            return PointSet.empty(self._d)
        sorted_ids = sorted(rows)
        return PointSet(
            np.asarray(sorted_ids, dtype=np.int64),
            np.vstack([rows[i] for i in sorted_ids]),
        )

    @property
    def refreshes(self) -> int:
        """Sum of worker-side batch refreshes (RPC; cached once stopped)."""
        if self._stopped or not self._conns:
            return self._refreshes_cache
        total = 0
        for s in range(self.num_shards):
            total += int(self._call(s, ("stats",))["refreshes"])
        self._refreshes_cache = total
        return total

    # -- trace plumbing -------------------------------------------------

    def drain_span_records(self) -> Dict[int, List[Tuple]]:
        """Collect every worker's batched span records (and clear them).

        Feed the result to
        :meth:`repro.obs.serve_trace.ServeTracer.ingest_fleet_records`
        per shard; do this before :meth:`stop`.
        """
        drained: Dict[int, List[Tuple]] = {}
        for s in range(self.num_shards):
            records = self._call(s, ("spans",))
            if records:
                drained[s] = list(records)
        return drained
