"""Sharded serving: partition the skyline index by independent groups.

One :class:`~repro.serve.index.SkylineIndex` eventually saturates on
repair work — every insert/delete burst pays its dominance comparisons
on a single server's clock. Lemma 2 says where the parallelism is: an
*independent partition group* (Definition 5) is closed under
anti-dominating regions, so the local skyline of its tuples is a subset
of the global skyline and can be maintained with **no cross-group
communication**. :class:`ShardedSkylineIndex` exploits exactly that:

* the initial dataset is gridded once, Algorithm 7 generates
  independent groups over the occupancy bitstring, and the groups are
  LPT-merged (Section 5.4.1, ``computation`` strategy) into
  ``num_shards`` reducer groups — one :class:`SkylineIndex` shard each;
* a point lives in every shard whose group *covers* its cell (some
  group seed's coordinates ≥ the cell's on every axis — the geometric
  form of ADR membership, which also admits cells that were empty at
  build time). Coverage is downward closed, so **every dominator of a
  point shares all of that point's shards**: a shard's local skyline
  decision is globally correct, and the global skyline is simply the
  concatenation of per-shard skylines filtered to each shard's *owned*
  ids (the responsibility tie-break of Section 5.4.2: the covering
  group with the smallest ``(|ADR|, seed)``), merged in id order —
  byte-identical to the unsharded index's answer;
* deltas route only to covering shards; a coalesced burst becomes at
  most one :meth:`SkylineIndex.apply_delta_batch` repair per shard,
  and the *service time* of the burst is bounded by the **largest**
  per-shard repair — which is the whole point: repair pairs divide
  across shards, so write-heavy capacity scales with the fleet;
* a point whose cell no group covers (data drifted past every seed)
  triggers a full **reshard** — regrid, regroup, rebuild — which is
  rare by construction (the grid is refit to the data at build time)
  and counted/evented so benches can see it.

:class:`ShardedFrontend` is the admission-controlled router on top:
the same deterministic virtual-clock FIFO as
:class:`~repro.serve.frontend.QueryFrontend`, plus **delta batching**
(mutations inside a batch window coalesce into one fleet-wide repair
pass; a query first flushes the pending batch, so it always sees every
mutation submitted before it) and a shard-aware cost model
(per-shard dispatch on the router, the slowest shard's read, the
largest shard's repair).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.order import as_dataset
from repro.core.pointset import PointSet
from repro.errors import ValidationError
from repro.grid.bitstring import Bitstring
from repro.grid.grid import Grid
from repro.grid.groups import (
    IndependentGroup,
    generate_independent_groups,
    merge_groups,
)
from repro.grid.ppd import cap_ppd, ppd_from_equation4
from repro.mapreduce import counters as counter_names
from repro.mapreduce.counters import Counters
from repro.obs.events import ServeDeltaBatch, ServeReshard, bus_active
from repro.serve.frontend import DEFAULT_TENANT, QueryFrontend, _ServingCore
from repro.serve.index import (
    DEFAULT_STALENESS_BUDGET,
    SkylineIndex,
    select_region,
)

#: Ceiling for the adaptive partitions-per-dimension search: doubling
#: stops here even if the group count never reaches the shard count
#: (a dataset can be too concentrated to split further).
MAX_SHARD_PPD = 64


def _covering_seeds(
    cell_coords: np.ndarray, seed_coords: np.ndarray
) -> np.ndarray:
    """Boolean mask over seeds: which groups cover this cell.

    Group ``{pm} ∪ pm.ADR`` covers every cell with coordinates ≤ the
    seed's on all axes. Downward closed: if a cell is covered, so is
    every cell of its anti-dominating region — the property that makes
    per-shard skyline decisions globally correct.
    """
    return (cell_coords <= seed_coords).all(axis=1)


class UncoveredCellError(Exception):
    """A cell no group's seed covers (routing signal → reshard)."""

    def __init__(self, cell: int):
        super().__init__(f"cell {cell} is outside every group's coverage")
        self.cell = cell


@dataclass(frozen=True)
class ShardPlan:
    """A fitted partition plan: grid, groups, and shard routing.

    Shared by the in-process :class:`ShardedSkylineIndex` and the
    process fleet in :mod:`repro.serve.fleet` so both route points the
    same way.
    """

    grid: Grid
    groups: Tuple[IndependentGroup, ...]
    reducer_groups: Tuple
    seed_to_shard: Dict[int, int]
    seed_coords: np.ndarray
    coords: np.ndarray

    @property
    def num_shards(self) -> int:
        return len(self.reducer_groups)

    def route_cell(self, cell: int) -> Tuple[Tuple[int, ...], int]:
        """(covering shards, owner shard) for a cell.

        The owner is the covering *original* group minimising
        ``(|ADR|, seed)`` — the exact responsibility tie-break the
        batch pipeline's Section 5.4.2 designation uses — mapped to
        its reducer group. Raises :class:`UncoveredCellError` when no
        seed covers the cell (data drifted past the fitted grid).
        """
        mask = _covering_seeds(self.coords[cell], self.seed_coords)
        if not mask.any():
            raise UncoveredCellError(cell)
        covering = [self.groups[i] for i in np.flatnonzero(mask).tolist()]
        shards = tuple(
            sorted({self.seed_to_shard[g.seed] for g in covering})
        )
        owner_group = min(covering, key=lambda g: (g.adr_size, g.seed))
        return shards, self.seed_to_shard[owner_group.seed]


def plan_shards(
    values: np.ndarray, num_shards: int, ppd: Optional[int] = None
) -> ShardPlan:
    """Fit a grid to the data and plan ``num_shards`` shard groups.

    A coarse grid can yield a single group covering everything (one
    seed dominates all occupied cells), which would collapse the fleet
    to one shard; when ``ppd`` is not pinned, the partitions-per-
    dimension double until at least ``num_shards`` independent groups
    exist (or :data:`MAX_SHARD_PPD` says the data will not split).
    Groups are then LPT-merged by |ADR| (the ``computation`` strategy
    of Section 5.4.1) into at most ``num_shards`` reducer groups.
    """
    values = np.asarray(values, dtype=np.float64)
    d = int(values.shape[1])
    n = ppd
    if n is None:
        n = cap_ppd(ppd_from_equation4(max(values.shape[0], 2), d), d)
    while True:
        grid = Grid.fit(values, n)
        cells = grid.cell_indices(values)
        occupancy = np.zeros(grid.num_partitions, dtype=np.int64)
        np.add.at(occupancy, cells, 1)
        groups = generate_independent_groups(
            grid, Bitstring(grid, occupancy > 0)
        )
        if (
            len(groups) >= num_shards
            or n >= MAX_SHARD_PPD
            or ppd is not None
        ):
            break
        n = min(2 * n, MAX_SHARD_PPD)
    reducer_groups = merge_groups(groups, num_shards, strategy="computation")
    seed_to_shard: Dict[int, int] = {}
    for shard_idx, rg in enumerate(reducer_groups):
        for g in rg.groups:
            seed_to_shard[g.seed] = shard_idx
    coords = grid.coords_array()
    return ShardPlan(
        grid=grid,
        groups=tuple(groups),
        reducer_groups=tuple(reducer_groups),
        seed_to_shard=seed_to_shard,
        seed_coords=coords[[g.seed for g in groups]],
        coords=coords,
    )


class ShardedSkylineIndex:
    """A fleet of :class:`SkylineIndex` shards behind one router.

    Duck-compatible with :class:`SkylineIndex` where the frontends
    need it (``epoch`` / ``skyline()`` / ``query()`` / ``snapshot()`` /
    ``apply_delta_batch()`` / ``counters`` / ``bus``), so the serving
    stack above does not care whether it talks to one index or many.
    """

    def __init__(
        self,
        data,
        *,
        num_shards: int,
        ppd: Optional[int] = None,
        staleness_budget: int = DEFAULT_STALENESS_BUDGET,
        refresh_algorithm: str = "mr-gpmrs",
        engine=None,
        cluster=None,
        counters: Optional[Counters] = None,
        bus=None,
    ):
        if num_shards < 1:
            raise ValidationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        values = as_dataset(data)
        if values.shape[0] == 0:
            raise ValidationError(
                "ShardedSkylineIndex needs a non-empty initial dataset "
                "(the grid and groups are fitted to it)"
            )
        self.requested_shards = int(num_shards)
        self._requested_ppd = ppd
        self.staleness_budget = int(staleness_budget)
        self.refresh_algorithm = refresh_algorithm
        self.engine = engine
        self.cluster = cluster
        self.counters = counters if counters is not None else Counters()
        self.bus = bus
        self.epoch = 0
        self._d = int(values.shape[1])
        self._lock = threading.RLock()
        #: Per-shard repair pairs of the last mutating call (the
        #: frontend's service-time quantity).
        self.last_shard_pairs: Dict[int, int] = {}
        self._sky_cache: Optional[PointSet] = None
        self._sky_cache_epoch = -1
        self._contributions: List[int] = []
        ids = np.arange(values.shape[0], dtype=np.int64)
        self._next_id = int(values.shape[0])
        self._build(ids, values)

    # -- construction ---------------------------------------------------

    def _build(self, ids: np.ndarray, values: np.ndarray) -> None:
        """(Re)build grid, groups, shard indexes, and routing maps."""
        plan = plan_shards(
            values, self.requested_shards, ppd=self._requested_ppd
        )
        self._plan = plan
        self._grid = plan.grid
        self._groups = plan.groups

        cells = plan.grid.cell_indices(values)
        num_shards = plan.num_shards
        shard_ids: List[List[int]] = [[] for _ in range(num_shards)]
        shard_rows: List[List[np.ndarray]] = [[] for _ in range(num_shards)]
        self._cells: Dict[int, int] = {}
        self._owner: Dict[int, int] = {}
        self._members: Dict[int, Tuple[int, ...]] = {}
        replicated = 0
        cell_route: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        for pos in range(values.shape[0]):
            pid = int(ids[pos])
            cell = int(cells[pos])
            route = cell_route.get(cell)
            if route is None:
                route = self._route_cell(cell)
                cell_route[cell] = route
            shards, owner = route
            self._cells[pid] = cell
            self._owner[pid] = owner
            self._members[pid] = shards
            replicated += len(shards) - 1
            for s in shards:
                shard_ids[s].append(pid)
                shard_rows[s].append(values[pos])
        self.counters.inc(
            counter_names.SERVE_SHARD_REPLICATED_POINTS, replicated
        )

        self._shards: List[SkylineIndex] = []
        for s in range(num_shards):
            if shard_ids[s]:
                shard = SkylineIndex(
                    np.vstack(shard_rows[s]),
                    point_ids=np.asarray(shard_ids[s], dtype=np.int64),
                    staleness_budget=self.staleness_budget,
                    refresh_algorithm=self.refresh_algorithm,
                    engine=self.engine,
                    cluster=self.cluster,
                    counters=Counters(),
                )
            else:  # a merged group of empty coverage (possible post-drift)
                shard = SkylineIndex(
                    dimensionality=self._d,
                    staleness_budget=self.staleness_budget,
                    refresh_algorithm=self.refresh_algorithm,
                    engine=self.engine,
                    cluster=self.cluster,
                    counters=Counters(),
                )
            self._shards.append(shard)
        self._sky_cache = None
        self._sky_cache_epoch = -1

    def _route_cell(
        self, cell: int
    ) -> Tuple[Tuple[int, ...], int]:
        """(covering shards, owner shard) — see :meth:`ShardPlan.route_cell`."""
        return self._plan.route_cell(cell)

    # -- read side ------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> Tuple[SkylineIndex, ...]:
        return tuple(self._shards)

    def __len__(self) -> int:
        return len(self._owner)

    @property
    def refreshes(self) -> int:
        return sum(s.refreshes for s in self._shards)

    def skyline(self) -> PointSet:
        """Global skyline: owned per-shard members, merged in id order.

        Memoized per epoch; the per-shard fan-out (and the owned
        contribution sizes the cost model reads) is recomputed only
        when a delta has actually moved the epoch.
        """
        with self._lock:
            if self._sky_cache_epoch == self.epoch:
                return self._sky_cache
            parts: List[PointSet] = []
            contributions: List[int] = []
            for s, shard in enumerate(self._shards):
                sky = shard.skyline()
                if len(sky):
                    owned = np.fromiter(
                        (self._owner.get(int(pid)) == s for pid in sky.ids),
                        dtype=bool,
                        count=len(sky),
                    )
                    part = sky.select(owned)
                else:
                    part = sky
                parts.append(part)
                contributions.append(len(part))
            merged = PointSet.concat(parts)
            order = np.argsort(merged.ids, kind="stable")
            self._sky_cache = merged.select(order)
            self._sky_cache_epoch = self.epoch
            self._contributions = contributions
            self.counters.inc(
                counter_names.SERVE_SHARD_QUERIES_FANNED,
                len(self._shards),
            )
            return self._sky_cache

    def shard_contributions(self) -> List[int]:
        """Owned skyline members per shard (current epoch)."""
        with self._lock:
            self.skyline()
            return list(self._contributions)

    def skyline_ids(self) -> np.ndarray:
        return self.skyline().ids.copy()

    def query(self, region: Optional[Tuple] = None) -> PointSet:
        """Skyline members inside a constraint box (router merge)."""
        with self._lock:
            return select_region(self.skyline(), region)

    def snapshot(self) -> PointSet:
        """All live points (deduplicated via ownership), ids ascending."""
        with self._lock:
            rows: Dict[int, np.ndarray] = {}
            for s, shard in enumerate(self._shards):
                snap = shard.snapshot()
                for pos in range(len(snap)):
                    pid = int(snap.ids[pos])
                    if self._owner.get(pid) == s:
                        rows[pid] = snap.values[pos]
            if not rows:
                return PointSet.empty(self._d)
            ids = sorted(rows)
            return PointSet(
                np.asarray(ids, dtype=np.int64),
                np.vstack([rows[i] for i in ids]),
            )

    # -- delta maintenance ----------------------------------------------

    def insert(self, point, point_id: Optional[int] = None) -> int:
        """Insert one point into every covering shard."""
        with self._lock:
            row = np.asarray(point, dtype=np.float64).ravel()
            if row.shape[0] != self._d:
                raise ValidationError(
                    f"point has {row.shape[0]} dimensions, index has "
                    f"{self._d}"
                )
            pid = self._next_id if point_id is None else int(point_id)
            if pid in self._owner:
                raise ValidationError(f"point id {pid} already present")
            self._next_id = max(self._next_id, pid + 1)
            cell = self._grid.cell_index(row)
            try:
                shards, owner = self._route_cell(cell)
            except UncoveredCellError:
                self._reshard_with(extra=(pid, row), reason="uncovered")
                self.epoch += 1
                return pid
            before = self._pairs_snapshot()
            for s in shards:
                self._shards[s].insert(row, pid)
            self.last_shard_pairs = self._pairs_delta(before)
            self._cells[pid] = cell
            self._owner[pid] = owner
            self._members[pid] = shards
            self.counters.inc(counter_names.SERVE_INSERTS)
            self.counters.inc(
                counter_names.SERVE_SHARD_REPLICATED_POINTS,
                len(shards) - 1,
            )
            self.epoch += 1
            return pid

    def delete(self, point_id: int) -> None:
        """Delete a point from every shard that holds it."""
        with self._lock:
            pid = int(point_id)
            if pid not in self._owner:
                raise ValidationError(f"unknown point id {pid}")
            before = self._pairs_snapshot()
            for s in self._members.pop(pid):
                self._shards[s].delete(pid)
            self.last_shard_pairs = self._pairs_delta(before)
            del self._owner[pid]
            del self._cells[pid]
            self.counters.inc(counter_names.SERVE_DELETES)
            self.epoch += 1

    def apply_delta_batch(self, ops: List[Tuple]) -> Dict[int, int]:
        """Absorb a burst: at most ONE repair pass per shard.

        Ops are partitioned to their covering shards in arrival order
        and each shard absorbs its sub-batch with a single
        :meth:`SkylineIndex.apply_delta_batch`; the router's epoch
        bumps once. Returns repair pairs per touched shard — the
        *maximum* is the burst's parallel service time, the quantity
        the sharded cost model charges. Falls back to the sequential
        path when an insert lands outside every group's coverage (the
        reshard case).
        """
        with self._lock:
            if not ops:
                self.last_shard_pairs = {}
                return {}
            per_shard: Dict[int, List[Tuple]] = {}
            routed: List[Tuple] = []  # (kind, pid, cell, shards, owner)
            try:
                for op in ops:
                    if op[0] == "insert":
                        _k, point, pid = op
                        row = np.asarray(point, dtype=np.float64).ravel()
                        if row.shape[0] != self._d:
                            raise ValidationError(
                                f"point has {row.shape[0]} dimensions, "
                                f"index has {self._d}"
                            )
                        if pid is None:
                            pid = self._next_id
                        pid = int(pid)
                        cell = self._grid.cell_index(row)
                        shards, owner = self._route_cell(cell)
                        self._next_id = max(self._next_id, pid + 1)
                        for s in shards:
                            per_shard.setdefault(s, []).append(
                                ("insert", row, pid)
                            )
                        routed.append(("insert", pid, cell, shards, owner))
                    elif op[0] == "delete":
                        pid = int(op[1])
                        members = self._members.get(pid)
                        if members is None:
                            # Inserted earlier in this same batch.
                            entry = next(
                                (
                                    r
                                    for r in reversed(routed)
                                    if r[0] == "insert" and r[1] == pid
                                ),
                                None,
                            )
                            if entry is None:
                                raise ValidationError(
                                    f"unknown point id {pid}"
                                )
                            members = entry[3]
                        for s in members:
                            per_shard.setdefault(s, []).append(
                                ("delete", pid)
                            )
                        routed.append(("delete", pid, None, members, None))
                    else:
                        raise ValidationError(
                            f"unknown delta op {op[0]!r}"
                        )
            except UncoveredCellError:
                # Data drifted past every seed: replay sequentially so
                # insert() can reshard, then report pairs pessimistically
                # (the reshard dominates service time anyway).
                for op in ops:
                    if op[0] == "insert":
                        self.insert(op[1], op[2])
                    else:
                        self.delete(op[1])
                self.counters.inc(counter_names.SERVE_SHARD_DELTA_BATCHES)
                self.counters.inc(
                    counter_names.SERVE_SHARD_BATCHED_OPS, len(ops)
                )
                return dict(self.last_shard_pairs)

            before = self._pairs_snapshot()
            for s in sorted(per_shard):
                self._shards[s].apply_delta_batch(per_shard[s])
            pairs = self._pairs_delta(before)
            self.last_shard_pairs = {
                s: pairs.get(s, 0) for s in sorted(per_shard)
            }
            num_inserts = 0
            num_deletes = 0
            for entry in routed:
                if entry[0] == "insert":
                    _k, pid, cell, shards, owner = entry
                    self._cells[pid] = cell
                    self._owner[pid] = owner
                    self._members[pid] = shards
                    self.counters.inc(
                        counter_names.SERVE_SHARD_REPLICATED_POINTS,
                        len(shards) - 1,
                    )
                    num_inserts += 1
                else:
                    _k, pid, _cell, _shards, _owner = entry
                    self._members.pop(pid, None)
                    self._owner.pop(pid, None)
                    self._cells.pop(pid, None)
                    num_deletes += 1
            self.counters.inc(counter_names.SERVE_INSERTS, num_inserts)
            self.counters.inc(counter_names.SERVE_DELETES, num_deletes)
            self.counters.inc(counter_names.SERVE_SHARD_DELTA_BATCHES)
            self.counters.inc(
                counter_names.SERVE_SHARD_BATCHED_OPS, len(ops)
            )
            self.epoch += 1
            if bus_active(self.bus):
                self.bus.emit(
                    ServeDeltaBatch(
                        ops=len(ops),
                        inserts=num_inserts,
                        deletes=num_deletes,
                        epoch=self.epoch,
                        shards_touched=len(per_shard),
                        max_shard_pairs=max(
                            self.last_shard_pairs.values(), default=0
                        ),
                        skyline_size=len(self.skyline()),
                    )
                )
            return dict(self.last_shard_pairs)

    # -- reshard --------------------------------------------------------

    def _reshard_with(self, extra: Tuple[int, np.ndarray], reason: str):
        """Rebuild the whole fleet around the current live points."""
        snap = self.snapshot()
        pid, row = extra
        ids = np.append(snap.ids, np.int64(pid))
        values = (
            np.vstack([snap.values, row[None, :]])
            if len(snap)
            else row[None, :]
        )
        order = np.argsort(ids, kind="stable")
        self._build(ids[order], values[order])
        self.last_shard_pairs = {}
        self.counters.inc(counter_names.SERVE_INSERTS)
        self.counters.inc(counter_names.SERVE_SHARD_RESHARDS)
        if bus_active(self.bus):
            self.bus.emit(
                ServeReshard(
                    reason=reason,
                    shards=len(self._shards),
                    groups=len(self._groups),
                    epoch=self.epoch + 1,
                )
            )

    # -- instrumentation helpers ----------------------------------------

    def _pairs_snapshot(self) -> List[int]:
        return [
            s.counters.get(counter_names.TUPLE_COMPARES)
            for s in self._shards
        ]

    def _pairs_delta(self, before: List[int]) -> Dict[int, int]:
        return {
            s: self._shards[s].counters.get(counter_names.TUPLE_COMPARES)
            - before[s]
            for s in range(len(self._shards))
            if self._shards[s].counters.get(counter_names.TUPLE_COMPARES)
            > before[s]
        }

    def shard_counters(self) -> List[Dict[str, int]]:
        """Each shard's own counter bag (repair-pair accounting)."""
        return [s.counters.as_dict() for s in self._shards]

    def describe(self) -> str:
        sizes = [len(s) for s in self._shards]
        return (
            f"ShardedSkylineIndex(shards={len(self._shards)}, "
            f"points={len(self)}, sizes={sizes}, "
            f"groups={len(self._groups)}, epoch={self.epoch}, "
            f"grid={self._grid.describe()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


class _ShardServingCore(_ServingCore):
    """Shard-aware query costing on top of the shared serving core.

    Cache probes and the recompute baseline are priced exactly like
    the single-index core; a delta-policy miss replaces the flat query
    cost with router dispatch per shard + the *slowest* shard read +
    the merge copy — the parallel-read model of a fan-out query.
    """

    def answer(self, region) -> Tuple[PointSet, bool, float]:
        result, cache_hit, duration = super().answer(region)
        if cache_hit or self.policy != "delta":
            return result, cache_hit, duration
        if self.index.num_shards <= 1:
            # A one-shard index has no fan-out: flat pricing, identical
            # to the single-index core (the shards=1 parity anchor).
            return result, cache_hit, duration
        contributions = self.index.shard_contributions()
        slowest = max(
            (
                self.cost.shard_read_base_s
                + c * self.cost.per_result_tuple_s
                for c in contributions
            ),
            default=self.cost.shard_read_base_s,
        )
        duration = (
            self.cost.query_base_s
            + len(contributions) * self.cost.shard_dispatch_s
            + slowest
            + len(result) * self.cost.per_result_tuple_s
        )
        if self.tracer is not None:
            # Replace the flat index_read phase the parent recorded
            # with the fan-out's real shape: dispatch, parallel
            # per-shard reads, merge — they tile [0, duration].
            self.tracer.clear_phases()
            dispatch_end = (
                self.cost.query_base_s
                + len(contributions) * self.cost.shard_dispatch_s
            )
            self.tracer.phase(
                "dispatch",
                0.0,
                dispatch_end,
                track="router",
                shards=len(contributions),
            )
            for s, c in enumerate(contributions):
                read_s = (
                    self.cost.shard_read_base_s
                    + c * self.cost.per_result_tuple_s
                )
                self.tracer.phase(
                    "read",
                    dispatch_end,
                    dispatch_end + read_s,
                    track=f"shard-{s}",
                    contribution=int(c),
                )
            self.tracer.phase(
                "merge",
                dispatch_end + slowest,
                duration,
                track="router",
                result_size=len(result),
            )
        return result, cache_hit, duration


class ShardedFrontend(QueryFrontend):
    """Virtual-clock router frontend over a :class:`ShardedSkylineIndex`.

    Identical admission control (bounded weighted-fair queue, tenant
    quotas, shed, timeout) and determinism guarantees as
    :class:`QueryFrontend`, plus:

    * **delta batching** — mutations arriving within
      ``batch_window_s`` of the pending batch's first op (and below
      ``max_batch`` ops) coalesce; the batch flushes as ONE
      per-shard repair pass when the window closes, the batch fills,
      a query arrives (a query submitted after a mutation always
      sees it — the batch flushes before the query is admitted), or
      :meth:`flush` runs;
    * **shard-aware service times** — queries pay dispatch per shard
      and the slowest shard's read; a flushed batch pays one mutation
      base plus the *largest* per-shard repair, so divided repair
      work shows up as served capacity.
    """

    def __init__(
        self,
        index: ShardedSkylineIndex,
        *,
        batch_window_s: float = 0.002,
        max_batch: int = 64,
        **kwargs,
    ):
        super().__init__(index, **kwargs)
        if batch_window_s < 0:
            raise ValidationError(
                f"batch_window_s must be >= 0, got {batch_window_s}"
            )
        if max_batch < 1:
            raise ValidationError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        self.batch_window_s = float(batch_window_s)
        self.max_batch = int(max_batch)
        self._pending: List[Tuple] = []
        self._pending_start_s = 0.0
        self._pending_last_s = 0.0
        # Same construction args as the parent's core, shard-aware
        # costing swapped in.
        self.core = _ShardServingCore(
            index,
            self.core.policy,
            self.core.cache.capacity,
            self.counters,
            self.bus,
            self.core.cost,
        )
        self.core.tracer = self.tracer

    # -- batching -------------------------------------------------------

    def _enqueue_op(self, at_s: float, op: Tuple) -> None:
        self._advance(at_s)
        if self.batch_window_s == 0.0:
            # Window zero disables coalescing entirely: every op is its
            # own one-op batch, applied at its own arrival instant —
            # the configuration that replays byte-identically against
            # an unsharded QueryFrontend.
            self._apply_mutation(
                at_s,
                lambda: self.index.apply_delta_batch([op]),
                kind=str(op[0]),
            )
            return
        if self._pending and (
            at_s - self._pending_start_s > self.batch_window_s
            or len(self._pending) >= self.max_batch
        ):
            self._flush_batch(at_s)
        if not self._pending:
            self._pending_start_s = at_s
        self._pending.append(op)
        self._pending_last_s = at_s

    def _flush_batch(self, at_s: float) -> None:
        if not self._pending:
            return
        ops = self._pending
        self._pending = []
        self._apply_mutation(at_s, lambda: self.index.apply_delta_batch(ops))

    def _apply_mutation(self, at_s: float, op, kind: str = "batch"):
        """Charge the *largest* per-shard repair, not the sum.

        The router's own counter bag never carries ``TUPLE_COMPARES``
        (each shard accounts its pairs in its own bag), so the parent's
        counter-delta measurement would read zero; the index reports
        per-shard pairs from the last mutating call instead.
        """
        tracer = self.tracer
        ctx = tracer.begin_mutation(kind) if tracer is not None else None
        outcome = op()
        cost = self.core.cost
        duration = cost.mutation_base_s
        per_shard = {}
        if self.core.policy == "delta":
            per_shard = dict(self.index.last_shard_pairs)
            duration += (
                max(per_shard.values(), default=0) * cost.seconds_per_pair
            )
        start_s = max(self._server_free_s, at_s)
        self._server_free_s = start_s + duration
        self.core.cache.invalidate_before(self.index.epoch)
        if ctx is not None:
            tracer.commit_mutation(
                ctx,
                at_s,
                start_s,
                start_s + duration,
                pairs=max(per_shard.values(), default=0),
                epoch=self.index.epoch,
                # At one shard there is no fan-out to show (and the
                # trace stays span-identical to an unsharded replay).
                per_shard_pairs=(
                    per_shard if self.index.num_shards > 1 else None
                ),
                seconds_per_pair=cost.seconds_per_pair,
            )
        return outcome

    # -- entry points ---------------------------------------------------

    def submit_query(
        self, at_s: float, region=None, tenant: str = DEFAULT_TENANT
    ) -> int:
        self._advance(at_s)
        self._flush_batch(at_s)
        return super().submit_query(at_s, region, tenant)

    def apply_insert(self, at_s: float, point, point_id=None) -> int:
        if point_id is None:
            # No id to hand back until the op runs: flush and go direct.
            self._advance(at_s)
            self._flush_batch(at_s)
            return self._apply_mutation(
                at_s, lambda: self.index.insert(point, None), kind="insert"
            )
        row = np.asarray(point, dtype=np.float64).ravel()
        self._enqueue_op(at_s, ("insert", row, int(point_id)))
        return int(point_id)

    def apply_delete(self, at_s: float, point_id: int) -> None:
        self._enqueue_op(at_s, ("delete", int(point_id)))

    def apply_batch(self, at_s: float, ops) -> None:
        self._advance(at_s)
        self._flush_batch(at_s)
        self._apply_mutation(
            at_s, lambda: self.index.apply_delta_batch(list(ops))
        )

    def flush(self):
        self._flush_batch(max(self._pending_last_s, self._now_s))
        return super().flush()
