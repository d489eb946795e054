"""Shared building blocks of the MapReduce skyline algorithms.

* :class:`BufferingMapper` — the Hadoop idiom the paper's mappers use:
  accumulate the whole split in ``map`` and do the real work once in
  ``cleanup`` (Algorithms 1, 3 and 8 all emit only after the last
  tuple).
* :func:`partition_local_skylines` — Algorithm 3 / 8 lines 1-8:
  bitstring-pruned, per-partition local skylines.
* :func:`compare_partitions_within` — Algorithm 5 applied across a set
  of partition skylines (Algorithm 3 lines 9-10, Algorithm 6 lines 7-8,
  Algorithm 9 lines 9-10), with exact partition-compare counting for
  the Figure 11 measurements.
* :func:`assemble_result` — turn reducer (partition, PointSet) outputs
  into a :class:`~repro.algorithms.base.SkylineResult`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.dominance import DominanceCounter, dominated_mask
from repro.core.pointset import PointSet
from repro.errors import AlgorithmError
from repro.grid.bitstring import Bitstring
from repro.grid.grid import Grid
from repro.mapreduce import counters as counter_names
from repro.mapreduce.metrics import PipelineStats
from repro.mapreduce.types import Mapper, TaskContext

# Distributed-cache keys shared by the algorithms.
CACHE_GRID = "grid"
CACHE_BITSTRING = "bitstring"
CACHE_NUM_REDUCERS = "num_reducers"
CACHE_MERGE_STRATEGY = "merge_strategy"
CACHE_BOUNDS = "bounds"
CACHE_CANDIDATES = "ppd_candidates"
CACHE_CARDINALITY = "cardinality"
CACHE_PPD_STRATEGY = "ppd_strategy"
CACHE_TPP = "tpp"
CACHE_PRUNE = "prune_bitstring"


class BufferingMapper(Mapper):
    """Gathers the whole split; subclasses implement :meth:`finish`
    over it as a :class:`PointSet`.

    Two input protocols, one contract. On the runtime's block fast
    path, :meth:`map_block` receives the split as one columnar block —
    zero per-tuple Python work. On the legacy record path, ``map``
    accumulates (row_id, row) records and ``cleanup`` assembles the
    same PointSet. Either way :meth:`finish` sees an identical block,
    so emissions, counters, and shuffle bytes match exactly.
    """

    def setup(self, ctx: TaskContext) -> None:
        self._ids: List[int] = []
        self._rows: List[np.ndarray] = []
        self._blocks: List[PointSet] = []

    def map(self, key, value, ctx: TaskContext) -> None:
        self._ids.append(int(key))
        self._rows.append(np.asarray(value, dtype=np.float64))

    def map_block(self, points: PointSet, ctx: TaskContext) -> None:
        self._blocks.append(points)

    def cleanup(self, ctx: TaskContext) -> None:
        parts = list(self._blocks)
        if self._rows:
            parts.append(
                PointSet(
                    np.asarray(self._ids, dtype=np.int64), np.vstack(self._rows)
                )
            )
        if not parts:
            points = PointSet.empty(self._dimensionality(ctx))
        elif len(parts) == 1:
            points = parts[0]
        else:
            points = PointSet.concat(parts)
        self.finish(points, ctx)

    def _dimensionality(self, ctx: TaskContext) -> int:
        grid = ctx.cache.get(CACHE_GRID)
        if grid is not None:
            return grid.d
        bounds = ctx.cache.get(CACHE_BOUNDS)
        if bounds is not None:
            return len(bounds[0])
        return 1

    def finish(self, points: PointSet, ctx: TaskContext) -> None:
        raise NotImplementedError


def partition_local_skylines(
    points: PointSet, grid: Grid, bitstring: Bitstring, ctx: TaskContext
) -> Dict[int, PointSet]:
    """Per-partition local skylines with bitstring pruning.

    Algorithm 3 (and 8) lines 1-8: a tuple is processed only if its
    partition's bit is set; each surviving partition's tuples are
    reduced to the partition-local skyline (the vectorised equivalent
    of repeated ``InsertTuple`` calls).
    """
    result: Dict[int, PointSet] = {}
    if len(points) == 0:
        return result
    cells = grid.cell_indices(points.values)
    keep = bitstring.bits[cells]
    pruned = int((~keep).sum())
    if pruned:
        ctx.counters.inc(counter_names.TUPLES_PRUNED_BY_BITSTRING, pruned)
    counter = DominanceCounter()
    for cell, members in points.select(keep).split_by(cells[keep]):
        result[cell] = members.local_skyline(counter)
    ctx.counters.inc(counter_names.TUPLE_COMPARES, counter.pairs)
    ctx.counters.inc(
        counter_names.LOCAL_SKYLINE_SIZE, sum(len(s) for s in result.values())
    )
    return result


def compare_partitions_within(
    skylines: Dict[int, PointSet], grid: Grid, ctx: TaskContext
) -> None:
    """Algorithm 5 across all partitions present (in place).

    For every partition ``p`` and every other present partition
    ``pi ∈ p.ADR``, remove from ``S_p`` the tuples dominated by
    ``S_pi``. One increment of the partition-compare counter per
    (p, pi) pair — exactly the quantity the Section 6 cost model
    estimates and Figure 11 measures.

    A bounding-box screen skips the vectorised dominance work when no
    tuple of ``S_pi`` can possibly dominate a tuple of ``S_p`` (some
    axis where pi's componentwise minimum exceeds p's componentwise
    maximum). The counters are charged exactly as if the comparison ran
    — the screen is a wall-clock optimisation of *our* runtime, not of
    the modelled algorithm, so simulated runtimes and Figure 11 stay
    faithful to the paper's implementation.
    """
    order = sorted(skylines)
    if not order:
        return
    coord_matrix = np.asarray([grid.coords_of(p) for p in order])
    counter = DominanceCounter()
    mins = {
        p: skylines[p].values.min(axis=0) for p in order if len(skylines[p])
    }
    for i, p in enumerate(order):
        sp = skylines[p]
        # ADR membership, vectorised over all present partitions:
        # coords(q) <= coords(p) on every axis, q != p.
        leq = (coord_matrix <= coord_matrix[i]).all(axis=1)
        leq[i] = False
        adr_positions = np.flatnonzero(leq)
        ctx.counters.inc(
            counter_names.PARTITION_COMPARES, int(adr_positions.shape[0])
        )
        if len(sp) == 0:
            continue
        sp_max = sp.values.max(axis=0)
        for j in adr_positions.tolist():
            sq = skylines[order[j]]
            if len(sp) == 0 or len(sq) == 0:
                continue
            counter.charge(len(sq), len(sp))
            if not (mins[order[j]] <= sp_max).all():
                continue  # screened: no dominance possible
            mask = dominated_mask(sp.values, sq.values)
            if mask.any():
                sp = sp.select(~mask)
                if len(sp) == 0:
                    break  # counters for the remaining pairs were
                    # incremented up-front; no work remains
                sp_max = sp.values.max(axis=0)
        skylines[p] = sp
    ctx.counters.inc(counter_names.TUPLE_COMPARES, counter.pairs)


def merge_partition_skylines(
    chunks: Iterable[Dict[int, PointSet]], ctx: TaskContext
) -> Dict[int, PointSet]:
    """Union per-mapper partition skylines (Algorithm 6 lines 1-6).

    Each incoming chunk is internally dominance-free per partition, so
    one cell's pieces, in arrival order, are reduced by one
    :meth:`PointSet.merge_skylines` (the vectorised form of the
    InsertTuple loop).
    """
    pieces: Dict[int, List[PointSet]] = {}
    for chunk in chunks:
        for cell, sky in chunk.items():
            pieces.setdefault(cell, []).append(sky)
    counter = DominanceCounter()
    merged = {
        cell: PointSet.merge_skylines(parts, counter)
        for cell, parts in pieces.items()
    }
    ctx.counters.inc(counter_names.TUPLE_COMPARES, counter.pairs)
    return merged


def assemble_result(
    pairs: Iterable[Tuple[int, PointSet]],
    dimensionality: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Collect reducer (partition, PointSet) outputs into sorted
    (indices, values) arrays, verifying no partition is duplicated."""
    seen = set()
    parts: List[PointSet] = []
    for cell, points in pairs:
        if cell in seen:
            raise AlgorithmError(
                f"partition {cell} reported by more than one reducer; "
                "duplicate elimination is broken"
            )
        seen.add(cell)
        parts.append(points)
    parts = [p for p in parts if len(p)]
    if not parts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, dimensionality)),
        )
    combined = PointSet.concat(parts)
    if np.unique(combined.ids).size != combined.ids.size:
        raise AlgorithmError(
            "reducers emitted duplicate row ids across partitions; "
            "responsibility-based duplicate elimination is broken"
        )
    order = np.argsort(combined.ids, kind="stable")
    return combined.ids[order], combined.values[order]


def make_pipeline_result_stats(chain_result) -> PipelineStats:
    return chain_result.stats
