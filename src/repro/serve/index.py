"""The incremental skyline index: delta maintenance over the grid.

Batch runs of MR-GPSRS/MR-GPMRS answer "what is the skyline *now*";
serving heavy query traffic needs the answer *between* batch runs while
points arrive and leave. :class:`SkylineIndex` keeps the batch
pipeline's own substrate — the :class:`~repro.grid.grid.Grid`, the
global :class:`~repro.grid.bitstring.Bitstring`, per-cell point
buckets, and the current skyline — and maintains it under
:meth:`insert` / :meth:`delete` deltas:

* an **insert** flips the cell's occupancy bit if the cell was empty
  (re-running :meth:`~repro.grid.bitstring.Bitstring.prune_dominated`
  on the updated bitstring), then repairs the skyline with two
  vectorised dominance passes — the new point either loses against the
  current skyline (nothing else can change, by transitivity) or joins
  it and evicts the members it dominates (which covers every tuple of
  every cell the flipped bit newly prunes, by Lemma 1);
* a **delete** of a non-member only updates the bucket and occupancy;
  a delete of a skyline member triggers a *bounded local repair*: only
  the points of the member's dominated-region cells (cell coordinates
  ≥ the member's on every axis) whose pruned bit is set can surface,
  so the repair re-runs the local-skyline filter on exactly those
  candidates and screens the survivors against the remaining skyline.

Every delta bumps the **epoch** (the result cache's invalidation key)
and counts against the **staleness budget**: after ``staleness_budget``
deltas the index falls back to a full batch refresh that reuses the
paper's MR-GPSRS/MR-GPMRS pipelines through the configured engine and
re-fits the grid to the drifted data. The refresh is content-neutral —
the incremental skyline is already exact (the oracle suite asserts
byte-identical results against a from-scratch recompute after every
delta), so the refresh only re-optimises the *substrate* (grid bounds,
PPD, buckets) and resets the budget.

All-MIN preference convention (the paper's); normalise first for mixed
MIN/MAX criteria. Thread-safe: one re-entrant lock guards mutations
and snapshots, so the threaded frontend can query while a writer
inserts.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import skyline as batch_skyline
from repro.core.dominance import (
    DominanceCounter,
    dominated_by_point,
    point_dominated_by,
)
from repro.core.order import as_dataset
from repro.core.pointset import PointSet
from repro.errors import ValidationError
from repro.grid.bitstring import Bitstring
from repro.grid.grid import Grid
from repro.grid.ppd import cap_ppd, ppd_from_equation4
from repro.mapreduce import counters as counter_names
from repro.mapreduce.counters import Counters
from repro.obs.events import (
    ServeBatchRefresh,
    ServeDeltaApplied,
    ServeDeltaBatch,
    bus_active,
)

#: Algorithms the batch refresh may use: both expose the grid/bitstring
#: artifacts the index adopts after a refresh.
REFRESH_ALGORITHMS = ("mr-gpsrs", "mr-gpmrs")

#: Default delta budget before a batch refresh re-fits the substrate.
DEFAULT_STALENESS_BUDGET = 256


def select_region(sky: PointSet, region: Optional[Tuple]) -> PointSet:
    """Rows of ``sky`` inside the closed box ``region = (lows, highs)``.

    ``None`` (or an empty ``sky``) returns ``sky`` itself; a box whose
    dimensionality differs from ``sky``'s raises ``ValidationError``.
    """
    if region is None or len(sky) == 0:
        return sky
    lows = np.asarray(region[0], dtype=np.float64).ravel()
    highs = np.asarray(region[1], dtype=np.float64).ravel()
    d = sky.dimensionality
    if lows.shape[0] != d or highs.shape[0] != d:
        raise ValidationError(f"region must have {d} dimensions")
    inside = (sky.values >= lows).all(axis=1) & (sky.values <= highs).all(axis=1)
    return sky.select(inside)


class SkylineIndex:
    """Grid + bitstring + buckets + skyline, maintained under deltas."""

    def __init__(
        self,
        data=None,
        *,
        point_ids=None,
        dimensionality: Optional[int] = None,
        bounds: Optional[Tuple] = None,
        ppd: Optional[int] = None,
        staleness_budget: int = DEFAULT_STALENESS_BUDGET,
        refresh_algorithm: str = "mr-gpmrs",
        engine=None,
        cluster=None,
        counters: Optional[Counters] = None,
        bus=None,
    ):
        if refresh_algorithm not in REFRESH_ALGORITHMS:
            raise ValidationError(
                f"refresh_algorithm must be one of {REFRESH_ALGORITHMS}, "
                f"got {refresh_algorithm!r}"
            )
        if staleness_budget < 1:
            raise ValidationError(
                f"staleness_budget must be >= 1, got {staleness_budget}"
            )
        self.staleness_budget = int(staleness_budget)
        self.refresh_algorithm = refresh_algorithm
        self.engine = engine
        self.cluster = cluster
        self.counters = counters if counters is not None else Counters()
        self.bus = bus
        self.epoch = 0
        self.deltas_since_refresh = 0
        self.refreshes = 0
        self._lock = threading.RLock()

        if data is not None:
            values = as_dataset(data)
            dimensionality = values.shape[1]
        else:
            values = None
            if dimensionality is None and bounds is None:
                raise ValidationError(
                    "an empty SkylineIndex needs dimensionality or bounds"
                )
            if dimensionality is None:
                dimensionality = len(bounds[0])
        self._d = int(dimensionality)
        self._ppd = ppd
        self._next_id = 0

        # id -> row / cell; cell -> {id: None} (insertion-ordered).
        self._points: Dict[int, np.ndarray] = {}
        self._cells: Dict[int, int] = {}
        self._buckets: Dict[int, Dict[int, None]] = {}

        self._grid = self._fit_grid(values, bounds)
        self._occupancy = np.zeros(self._grid.num_partitions, dtype=np.int64)
        self._bitstring = Bitstring(self._grid)
        self._pruned = self._bitstring.copy()
        self._sky = PointSet.empty(self._d)

        if values is not None and values.shape[0]:
            if point_ids is None:
                ids = np.arange(values.shape[0], dtype=np.int64)
            else:
                # Sharded routers feed each shard a subset of a global
                # id space; the shard must preserve those ids so the
                # merged skyline is byte-identical to the unsharded one.
                ids = np.asarray(point_ids, dtype=np.int64).ravel()
                if ids.shape[0] != values.shape[0]:
                    raise ValidationError(
                        f"point_ids has {ids.shape[0]} entries for "
                        f"{values.shape[0]} points"
                    )
                if np.unique(ids).shape[0] != ids.shape[0]:
                    raise ValidationError("point_ids must be unique")
            self._next_id = int(ids.max()) + 1
            for i in range(values.shape[0]):
                self._points[int(ids[i])] = values[i].copy()
            self._rebuild_substrate(self._grid)
            self.batch_refresh()
        elif point_ids is not None:
            raise ValidationError("point_ids given without data")

    # -- construction helpers ------------------------------------------

    def _fit_grid(self, values, bounds) -> Grid:
        n = self._ppd
        if n is None:
            cardinality = values.shape[0] if values is not None else 0
            n = cap_ppd(
                ppd_from_equation4(max(cardinality, 2), self._d), self._d
            )
        if bounds is not None:
            return Grid(n, bounds[0], bounds[1])
        if values is not None and values.shape[0]:
            return Grid.fit(values, n)
        return Grid.unit(n, self._d)

    def _rebuild_substrate(self, grid: Grid) -> None:
        """Recompute cells/buckets/occupancy/bitstring on ``grid``."""
        self._grid = grid
        self._buckets = {}
        self._cells = {}
        self._occupancy = np.zeros(grid.num_partitions, dtype=np.int64)
        ids = sorted(self._points)
        if ids:
            values = np.vstack([self._points[i] for i in ids])
            cells = grid.cell_indices(values)
            for pos, pid in enumerate(ids):
                cell = int(cells[pos])
                self._cells[pid] = cell
                self._buckets.setdefault(cell, {})[pid] = None
                self._occupancy[cell] += 1
        self._bitstring = Bitstring(self._grid, self._occupancy > 0)
        self._pruned = self._bitstring.prune_dominated()

    # -- read side ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def bitstring(self) -> Bitstring:
        """Occupancy bitstring (Equation 1 over the live buckets)."""
        return self._bitstring

    @property
    def pruned_bitstring(self) -> Bitstring:
        """Equation 2 applied to the live occupancy bitstring."""
        return self._pruned

    def skyline(self) -> PointSet:
        """The current skyline, ids ascending (batch output order)."""
        with self._lock:
            return self._sky

    def skyline_ids(self) -> np.ndarray:
        with self._lock:
            return self._sky.ids.copy()

    def snapshot(self) -> PointSet:
        """All live points, ids ascending (the batch recompute input)."""
        with self._lock:
            ids = sorted(self._points)
            if not ids:
                return PointSet.empty(self._d)
            return PointSet(
                np.asarray(ids, dtype=np.int64),
                np.vstack([self._points[i] for i in ids]),
            )

    def query(self, region: Optional[Tuple] = None) -> PointSet:
        """Skyline members, optionally restricted to a constraint box.

        ``region`` is ``(lows, highs)``; members with every coordinate
        inside the closed box are returned. This is a *view* over the
        global skyline — the skyline *of* the constrained subset (which
        can contain additional points) is a roadmap item.
        """
        with self._lock:
            return select_region(self._sky, region)

    # -- delta maintenance ---------------------------------------------

    def insert(self, point, point_id: Optional[int] = None) -> int:
        """Insert one point; returns its id. O(|skyline|) repair."""
        with self._lock:
            row = np.asarray(point, dtype=np.float64).ravel()
            if row.shape[0] != self._d:
                raise ValidationError(
                    f"point has {row.shape[0]} dimensions, index has {self._d}"
                )
            if point_id is None:
                point_id = self._next_id
            else:
                point_id = int(point_id)
            if point_id in self._points:
                raise ValidationError(f"point id {point_id} already present")
            self._next_id = max(self._next_id, point_id + 1)

            cell = self._grid.cell_index(row)
            self._points[point_id] = row
            self._cells[point_id] = cell
            self._buckets.setdefault(cell, {})[point_id] = None
            self._occupancy[cell] += 1
            bit_flipped = self._occupancy[cell] == 1
            if bit_flipped:
                self._bitstring[cell] = True
                self._pruned = self._bitstring.prune_dominated()

            counter = DominanceCounter()
            sky = self._sky
            if len(sky):
                counter.charge(len(sky), 1)
            if len(sky) and point_dominated_by(row, sky.values):
                pass  # dominated: the skyline cannot change
            else:
                if len(sky):
                    counter.charge(1, len(sky))
                    evicted = dominated_by_point(row, sky.values)
                    if evicted.any():
                        sky = sky.select(~evicted)
                pos = int(np.searchsorted(sky.ids, point_id))
                self._sky = PointSet(
                    np.insert(sky.ids, pos, point_id),
                    np.insert(sky.values, pos, row, axis=0),
                )
            self.counters.inc(counter_names.SERVE_INSERTS)
            self.counters.inc(counter_names.TUPLE_COMPARES, counter.pairs)
            self._after_delta("insert", point_id, cell, bit_flipped, 0)
            return point_id

    def delete(self, point_id: int) -> None:
        """Delete a point by id. Bounded local repair for members."""
        with self._lock:
            point_id = int(point_id)
            if point_id not in self._points:
                raise ValidationError(f"unknown point id {point_id}")
            row = self._points.pop(point_id)
            cell = self._cells.pop(point_id)
            del self._buckets[cell][point_id]
            if not self._buckets[cell]:
                del self._buckets[cell]
            self._occupancy[cell] -= 1
            bit_flipped = self._occupancy[cell] == 0
            if bit_flipped:
                self._bitstring[cell] = False
                self._pruned = self._bitstring.prune_dominated()

            repair_candidates = 0
            sky = self._sky
            pos = int(np.searchsorted(sky.ids, point_id))
            was_member = pos < len(sky) and int(sky.ids[pos]) == point_id
            if was_member:
                keep = np.ones(len(sky), dtype=bool)
                keep[pos] = False
                sky = sky.select(keep)
                candidates = self._repair_candidates(cell, sky)
                repair_candidates = len(candidates)
                if repair_candidates:
                    counter = DominanceCounter()
                    survivors = candidates.local_skyline(
                        counter
                    ).remove_dominated_by(sky, counter)
                    self.counters.inc(
                        counter_names.TUPLE_COMPARES, counter.pairs
                    )
                    if len(survivors):
                        merged = PointSet.concat([sky, survivors])
                        order = np.argsort(merged.ids, kind="stable")
                        sky = merged.select(order)
                self._sky = sky
                self.counters.inc(counter_names.SERVE_DELTA_REPAIRS)
            self.counters.inc(counter_names.SERVE_DELETES)
            self._after_delta(
                "delete", point_id, cell, bit_flipped, repair_candidates
            )

    def _repair_candidates(self, cell: int, sky: PointSet) -> PointSet:
        """Non-member points of the viable dominated-region cells.

        A point the deleted member exclusively dominated has cell
        coordinates ≥ the member's on every axis; cells whose pruned
        bit is clear are strictly dominated by an occupied cell and
        can never surface (Lemma 1), so they are skipped.
        """
        coords = self._grid.coords_array()
        region = (coords >= coords[cell]).all(axis=1) & self._pruned.bits
        member_ids = set(sky.ids.tolist())
        ids: List[int] = []
        for c in np.flatnonzero(region).tolist():
            bucket = self._buckets.get(c)
            if bucket:
                ids.extend(
                    pid for pid in bucket if pid not in member_ids
                )
        if not ids:
            return PointSet.empty(self._d)
        ids = sorted(ids)
        return PointSet(
            np.asarray(ids, dtype=np.int64),
            np.vstack([self._points[i] for i in ids]),
        )

    def apply_delta_batch(self, ops: List[Tuple]) -> int:
        """Absorb a burst of deltas in ONE repair pass; returns pairs.

        ``ops`` is a sequence of ``("insert", point, point_id)`` /
        ``("delete", point_id)`` tuples, applied to storage in order
        (so insert-then-delete of the same id within a batch is legal)
        but repaired *once*:

        1. storage (buckets/occupancy) absorbs every op sequentially;
        2. the bitstring and its pruned form are rebuilt once;
        3. the repair works from ``base`` = the old skyline minus
           deleted members. Candidates are the surviving inserted
           points plus — for each deleted member — the live points of
           its dominated-region cells whose (post-batch) pruned bit is
           set; the batch survivors are the candidates' local skyline
           screened against ``base``, and survivors can in turn evict
           ``base`` members (an insert may dominate an old member).

        Exactness: any point the batch can surface was exclusively
        dominated by some deleted member (→ in its repair region) or
        arrived in the batch (→ a candidate); any point the batch can
        evict is dominated by a surviving candidate (→ screened in
        step 3). The oracle suite asserts byte-identity against a
        from-scratch recompute after every batch.

        One epoch bump for the whole batch — this is what makes
        coalescing pay for result caches and sharded fan-out — but the
        staleness budget still advances by ``len(ops)``, so refresh
        cadence matches the op-by-op path. Returns the number of
        tuple-pair comparisons the repair charged (the serving cost
        model's service-time quantity).
        """
        with self._lock:
            if not ops:
                return 0
            sky0 = self._sky
            sky0_ids = set(sky0.ids.tolist())
            inserted: Dict[int, np.ndarray] = {}
            deleted_member_cells: List[int] = []
            deleted_ids: set = set()
            num_inserts = 0
            num_deletes = 0
            for op in ops:
                if op[0] == "insert":
                    _kind, point, point_id = op
                    row = np.asarray(point, dtype=np.float64).ravel()
                    if row.shape[0] != self._d:
                        raise ValidationError(
                            f"point has {row.shape[0]} dimensions, "
                            f"index has {self._d}"
                        )
                    if point_id is None:
                        point_id = self._next_id
                    else:
                        point_id = int(point_id)
                    if point_id in self._points:
                        raise ValidationError(
                            f"point id {point_id} already present"
                        )
                    self._next_id = max(self._next_id, point_id + 1)
                    cell = self._grid.cell_index(row)
                    self._points[point_id] = row
                    self._cells[point_id] = cell
                    self._buckets.setdefault(cell, {})[point_id] = None
                    self._occupancy[cell] += 1
                    inserted[point_id] = row
                    deleted_ids.discard(point_id)
                    num_inserts += 1
                elif op[0] == "delete":
                    point_id = int(op[1])
                    if point_id not in self._points:
                        raise ValidationError(
                            f"unknown point id {point_id}"
                        )
                    del self._points[point_id]
                    cell = self._cells.pop(point_id)
                    del self._buckets[cell][point_id]
                    if not self._buckets[cell]:
                        del self._buckets[cell]
                    self._occupancy[cell] -= 1
                    if point_id in inserted:
                        del inserted[point_id]
                    elif point_id in sky0_ids:
                        deleted_member_cells.append(cell)
                        deleted_ids.add(point_id)
                    else:
                        deleted_ids.add(point_id)
                    num_deletes += 1
                else:
                    raise ValidationError(f"unknown delta op {op[0]!r}")

            # One substrate rebuild for the whole burst.
            self._bitstring = Bitstring(self._grid, self._occupancy > 0)
            self._pruned = self._bitstring.prune_dominated()

            base = sky0
            if deleted_ids:
                keep = np.array(
                    [int(i) not in deleted_ids for i in sky0.ids],
                    dtype=bool,
                )
                base = sky0.select(keep)
            base_ids = set(base.ids.tolist())

            candidate_rows: Dict[int, np.ndarray] = dict(inserted)
            if deleted_member_cells:
                coords = self._grid.coords_array()
                region = np.zeros(len(self._pruned.bits), dtype=bool)
                for cell in deleted_member_cells:
                    region |= (coords >= coords[cell]).all(axis=1)
                region &= self._pruned.bits
                for c in np.flatnonzero(region).tolist():
                    bucket = self._buckets.get(c)
                    if bucket:
                        for pid in bucket:
                            if pid not in base_ids:
                                candidate_rows[pid] = self._points[pid]

            counter = DominanceCounter()
            sky = base
            if candidate_rows:
                cand_ids = sorted(candidate_rows)
                candidates = PointSet(
                    np.asarray(cand_ids, dtype=np.int64),
                    np.vstack([candidate_rows[i] for i in cand_ids]),
                )
                survivors = candidates.local_skyline(
                    counter
                ).remove_dominated_by(base, counter)
                if len(survivors):
                    # Screening the base against survivors is only
                    # needed when the batch inserted points: a
                    # delete-only survivor dominating a base member
                    # would contradict base ⊆ old skyline. Skipping it
                    # keeps one-op delete batches pair-identical to
                    # the single-op delete path.
                    if len(base) and inserted:
                        base = base.remove_dominated_by(survivors, counter)
                    merged = PointSet.concat([base, survivors])
                    order = np.argsort(merged.ids, kind="stable")
                    sky = merged.select(order)
                else:
                    sky = base
            self._sky = sky

            self.counters.inc(counter_names.SERVE_INSERTS, num_inserts)
            self.counters.inc(counter_names.SERVE_DELETES, num_deletes)
            self.counters.inc(
                counter_names.SERVE_DELTA_REPAIRS,
                len(deleted_member_cells),
            )
            self.counters.inc(counter_names.TUPLE_COMPARES, counter.pairs)

            self.epoch += 1
            self.deltas_since_refresh += len(ops)
            if bus_active(self.bus):
                self.bus.emit(
                    ServeDeltaBatch(
                        ops=len(ops),
                        inserts=num_inserts,
                        deletes=num_deletes,
                        epoch=self.epoch,
                        shards_touched=1,
                        max_shard_pairs=counter.pairs,
                        skyline_size=len(self._sky),
                    )
                )
            if self.deltas_since_refresh >= self.staleness_budget:
                self.batch_refresh()
            return counter.pairs

    def _after_delta(
        self,
        op: str,
        point_id: int,
        cell: int,
        bit_flipped: bool,
        repair_candidates: int,
    ) -> None:
        self.epoch += 1
        self.deltas_since_refresh += 1
        if bus_active(self.bus):
            self.bus.emit(
                ServeDeltaApplied(
                    op=op,
                    point_id=point_id,
                    cell=cell,
                    epoch=self.epoch,
                    bit_flipped=bool(bit_flipped),
                    repair_candidates=repair_candidates,
                    skyline_size=len(self._sky),
                )
            )
        if self.deltas_since_refresh >= self.staleness_budget:
            self.batch_refresh()

    # -- batch refresh --------------------------------------------------

    def batch_refresh(self) -> None:
        """Full recompute through the configured MapReduce pipeline.

        Re-fits the grid to the current data (the batch job's own PPD
        and bounds logic), rebuilds buckets/bitstring on it, and
        replaces the skyline with the batch output. Content-neutral by
        construction — asserted byte-identical by the oracle suite —
        so the epoch (and with it every cached result) stays valid.
        """
        with self._lock:
            absorbed = self.deltas_since_refresh
            snap = self.snapshot()
            if len(snap):
                result = batch_skyline(
                    snap.values,
                    algorithm=self.refresh_algorithm,
                    cluster=self.cluster,
                    engine=self.engine,
                )
                self._sky = PointSet(
                    snap.ids[result.indices], result.values
                )
                grid = result.artifacts.get("grid")
                if grid is not None:
                    self._rebuild_substrate(grid)
            else:
                self._sky = PointSet.empty(self._d)
                self._rebuild_substrate(self._fit_grid(None, None))
            self.deltas_since_refresh = 0
            self.refreshes += 1
            self.counters.inc(counter_names.SERVE_BATCH_REFRESHES)
            if bus_active(self.bus):
                self.bus.emit(
                    ServeBatchRefresh(
                        epoch=self.epoch,
                        deltas_absorbed=absorbed,
                        algorithm=self.refresh_algorithm,
                        skyline_size=len(self._sky),
                    )
                )

    def describe(self) -> str:
        return (
            f"SkylineIndex(points={len(self)}, skyline={len(self._sky)}, "
            f"epoch={self.epoch}, grid={self._grid.describe()}, "
            f"budget={self.deltas_since_refresh}/{self.staleness_budget})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
