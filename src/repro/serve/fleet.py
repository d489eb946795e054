"""The process transport for the sharded router: one worker per shard.

:class:`~repro.serve.shard.ShardedSkylineIndex` is the one router of the
serving fleet: routing, delta batching, the owned-id merge,
``snapshot`` and reshard live there, and its shards sit behind one
hook, ``_make_shards``. In process the hook returns
:class:`~repro.serve.index.SkylineIndex` objects; :class:`SkylineFleet`
overrides it and returns RPC stubs over real worker processes, so the
same router code serves both transports:

* each worker hosts one :class:`~repro.serve.index.SkylineIndex` and
  talks to the router over a duplex :class:`multiprocessing.Pipe`
  (synchronous request/response — the router is the only client, so a
  queue buys nothing but reordering hazards);
* the initial per-shard datasets travel as **zero-copy shared-memory
  blocks** (:meth:`repro.core.shm.SharedArena.share_blocks`): the
  fleet packs every shard's ids+values into one segment and pickles
  only descriptors into the spawn args — workers map the segment
  read-only and copy their slice exactly once, into their own index
  storage. The arena is retired on :meth:`SkylineFleet.stop`, and the
  lifecycle tests assert no segment outlives the fleet;
* each stub adds the repair work its RPCs return to its own
  ``counters``, so the router's per-shard pair accounting reads a stub
  exactly like an in-process shard;
* inserts outside every group's coverage raise
  :class:`~repro.serve.shard.UncoveredCellError` by default — tearing
  down live workers mid-stream is a deployment event, not a data-path
  one. Pass ``reshard=True`` to opt into the router's reshard (the
  serving pipeline does): the fleet stitches the outgoing workers'
  span records, the router snapshots the live points, and the fleet
  respawns its workers around the new coverage;
* every data RPC carries the tracer's current
  :class:`~repro.obs.serve_trace.TraceContext` (or ``None`` when no
  tracer is attached). Workers **batch span records** —
  ``(rpc_seq, op, ctx, work)`` — locally and hand them back over the
  same pipe when the router drains them
  (:meth:`SkylineFleet.drain_span_records` / ``("spans",)``), so a
  :class:`~repro.obs.serve_trace.ServeTracer` can stitch worker spans
  into the one multi-process trace by request id.

The fleet is wall-clock real (no virtual time): it exists to prove the
sharded serving plan survives process boundaries and to host the
lifecycle tests; capacity claims are made by the deterministic
virtual-clock :class:`~repro.serve.shard.ShardedFrontend`, which drives
a fleet like any other sharded index.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.pointset import PointSet
from repro.core.shm import SharedArena
from repro.mapreduce import counters as counter_names
from repro.mapreduce.counters import Counters
from repro.serve.index import DEFAULT_STALENESS_BUDGET
from repro.serve.shard import (
    ShardedSkylineIndex,
    UncoveredCellError,
    shard_index,
)


def _shard_worker(
    conn, block, dimensionality: int, staleness_budget: int
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
    index = shard_index(
        block, dimensionality, staleness_budget=staleness_budget
    )
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
                        {"refreshes": index.refreshes, "points": len(index)},
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
                _, ctx = msg
                sky = index.skyline()
                if ctx is not None:
                    records.append((rpc_seq, "skyline", ctx, len(sky)))
                conn.send(("ok", (sky.ids.copy(), sky.values.copy())))
            elif op == "snapshot":
                _, ctx = msg
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


class _ShardStub:
    """The router's handle on one worker: the shard surface, over RPC.

    Each data RPC carries the tracer's current context. The repair
    work an RPC returns is added to the stub's own ``counters``, which
    the router reads exactly like an in-process shard's.
    """

    def __init__(self, fleet: "SkylineFleet", shard: int):
        self._fleet = fleet
        self._shard = shard
        self.counters = Counters()
        self._stats = {"refreshes": 0, "points": 0}

    def _call(self, msg: Tuple):
        return self._fleet._call(self._shard, msg)

    def _ctx(self):
        tracer = self._fleet.tracer
        return tracer.current_ctx if tracer is not None else None

    def _charge(self, work) -> None:
        self.counters.inc(counter_names.TUPLE_COMPARES, int(work))

    def insert(self, row: np.ndarray, pid: int) -> None:
        self._charge(self._call(("insert", row, pid, self._ctx())))

    def delete(self, pid: int) -> None:
        self._charge(self._call(("delete", pid, self._ctx())))

    def apply_delta_batch(self, ops: List[Tuple]) -> None:
        self._charge(self._call(("batch", ops, self._ctx())))

    def skyline(self) -> PointSet:
        return PointSet(*self._call(("skyline", self._ctx())))

    def snapshot(self) -> PointSet:
        return PointSet(*self._call(("snapshot", self._ctx())))

    def _read_stats(self) -> Dict[str, int]:
        # Once the fleet is stopped the last answer stands.
        if not self._fleet._stopped:
            self._stats = self._call(("stats",))
        return self._stats

    @property
    def refreshes(self) -> int:
        return int(self._read_stats()["refreshes"])

    def __len__(self) -> int:
        return int(self._read_stats()["points"])


class SkylineFleet(ShardedSkylineIndex):
    """The sharded router over one worker process per shard.

    Everything but the transport is
    :class:`~repro.serve.shard.ShardedSkylineIndex`'s; this class adds
    the workers, their arena and their lifecycle. Use as a context
    manager — workers and the shared-memory arena are released on
    :meth:`stop`.
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
        staleness_budget: int = DEFAULT_STALENESS_BUDGET,
        reshard: bool = False,
    ):
        self.tracer = tracer
        self._reshard_enabled = bool(reshard)
        self._start_method = start_method
        self._stopped = False
        self._conns: List = []
        self._procs: List = []
        #: The live workers' arena (empty until the first build).
        self._arena = SharedArena()
        super().__init__(
            data,
            num_shards=num_shards,
            ppd=ppd,
            staleness_budget=staleness_budget,
            counters=counters,
            bus=bus,
        )

    def _make_shards(self, blocks: List[Optional[PointSet]]) -> List:
        """Pack the blocks into one arena, spawn a worker per block.

        On a reshard the outgoing workers and their arena retire first
        (the router has already read its snapshot from them).
        """
        self._shutdown_workers()
        # Ship every shard's dataset through ONE shared segment: the
        # pickled spawn args carry descriptors, not arrays.
        self._arena = SharedArena()
        shared = iter(
            self._arena.share_blocks([b for b in blocks if b is not None])
        )
        payload = [next(shared) if b is not None else None for b in blocks]
        ctx = multiprocessing.get_context(self._start_method)
        try:
            for block in payload:
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_worker,
                    args=(child, block, self._d, self.staleness_budget),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:  # repro: allow[REP006] - cleanup, re-raised
            self.stop()
            raise
        return [_ShardStub(self, s) for s in range(len(blocks))]

    def _reshard_with(self, extra: Tuple[int, np.ndarray], reason: str):
        """The router's reshard, opt-in (``reshard=True``).

        Otherwise the uncovered insert raises
        :class:`~repro.serve.shard.UncoveredCellError`.
        """
        if not self._reshard_enabled:
            raise UncoveredCellError(self._plan.grid.cell_index(extra[1]))
        if self.tracer is not None:
            # The outgoing workers hold span records for committed ops;
            # stitch them in now or the respawn drops them.
            for s, recs in self.drain_span_records().items():
                self.tracer.ingest_fleet_records(s, recs)
        super()._reshard_with(extra, reason)

    # -- lifecycle ------------------------------------------------------

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

    # -- trace plumbing -------------------------------------------------

    def drain_span_records(self) -> Dict[int, List[Tuple]]:
        """Collect every worker's batched span records (and clear them).

        Feed the result to
        :meth:`repro.obs.serve_trace.ServeTracer.ingest_fleet_records`
        per shard; do this before :meth:`stop`.
        """
        drained: Dict[int, List[Tuple]] = {}
        for s in range(len(self._conns)):
            records = self._call(s, ("spans",))
            if records:
                drained[s] = list(records)
        return drained
