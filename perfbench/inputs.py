"""Seeded inputs and the independent correctness oracle.

Everything here is plain numpy: no ``repro`` import, so no change to the
program can move the inputs or the answers they are checked against.
The generators follow the shapes of Börzsönyi et al. (the paper's data
sets): independent points are uniform in the unit cube, anti-correlated
points scatter around the plane sum(x) = d/2 and are rejection-sampled
into the cube.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

#: Standard deviation of the anti-correlated jitter off the plane.
ANTICORR_JITTER = 0.08


def independent(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.random((n, d))


def anticorrelated(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    out = np.empty((n, d))
    filled = 0
    while filled < n:
        base = rng.random((2 * (n - filled) + 64, d))
        plane = base + (d / 2.0 - base.sum(axis=1, keepdims=True)) / d
        batch = plane + rng.normal(0.0, ANTICORR_JITTER, plane.shape)
        good = batch[((batch >= 0.0) & (batch <= 1.0)).all(axis=1)]
        good = good[: n - filled]
        out[filled : filled + len(good)] = good
        filled += len(good)
    return out


GENERATORS = {"independent": independent, "anticorrelated": anticorrelated}


def spans_lower_orthant(values: np.ndarray) -> bool:
    """True iff some row lies below the mid-range in every dimension.

    With two partitions per dimension, as MR-GPSRS and MR-GPMRS choose for
    the anti-correlated batch workload, such a row occupies the grid's
    lowest cell. Without one, MR-GPMRS finds a single independent group
    instead of five and does half the work. That happens for about a
    quarter of the seeds at d=5, n=4000, which would make the workload's
    cost bimodal over seeds.
    """
    mid = (values.min(axis=0) + values.max(axis=0)) / 2.0
    return bool((values < mid).all(axis=1).any())


def skyline_rows(values: np.ndarray) -> np.ndarray:
    """Positions of the skyline rows of ``values`` (minimise all), ascending.

    Repeatedly takes the remaining row with the smallest coordinate sum
    (nothing left can dominate it) and drops every row it dominates.
    Duplicates of a skyline row are not dominated and stay.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values.sum(axis=1), kind="stable")
    rest = values[order]
    pos = order
    keep: List[int] = []
    while len(rest):
        top = rest[0]
        keep.append(int(pos[0]))
        rest, pos = rest[1:], pos[1:]
        beaten = (top <= rest).all(axis=1) & (top < rest).any(axis=1)
        rest, pos = rest[~beaten], pos[~beaten]
    return np.sort(np.asarray(keep, dtype=np.int64))


def in_region(values: np.ndarray, region) -> np.ndarray:
    """Mask of rows inside the closed box ``(lows, highs)``."""
    if region is None:
        return np.ones(len(values), dtype=bool)
    lows, highs = (np.asarray(b, dtype=np.float64) for b in region)
    return (values >= lows).all(axis=1) & (values <= highs).all(axis=1)


# One op of a serve stream: ("query", region) / ("insert", point, id) /
# ("delete", id).
Op = Tuple


def serve_stream(
    rng: np.random.Generator,
    *,
    initial: int,
    d: int,
    num_ops: int,
    query_fraction: float,
    region_fraction: float,
    region_pool: int,
) -> Tuple[np.ndarray, List[Op]]:
    """Initial anti-correlated points and a read/write op stream.

    Writes split evenly between inserts of fresh anti-correlated points
    and deletes of a uniformly chosen live id; queries ask for the whole
    skyline or, with ``region_fraction``, for the part inside one of
    ``region_pool`` fixed boxes (repeated boxes are what the result
    cache serves).
    """
    data = anticorrelated(rng, initial, d)
    pool = []
    for _ in range(region_pool):
        centre = rng.random(d)
        half = 0.15 + 0.2 * rng.random()
        pool.append(
            (
                tuple(np.clip(centre - half, 0.0, 1.0).tolist()),
                tuple(np.clip(centre + half, 0.0, 1.0).tolist()),
            )
        )
    fresh = anticorrelated(rng, num_ops, d)
    live = list(range(initial))
    next_id = initial
    ops: List[Op] = []
    for _ in range(num_ops):
        draw = rng.random()
        if draw < query_fraction:
            region = None
            if rng.random() < region_fraction:
                region = pool[int(rng.integers(len(pool)))]
            ops.append(("query", region))
        elif draw < (1.0 + query_fraction) / 2.0:
            ops.append(("insert", tuple(fresh[next_id - initial].tolist()), next_id))
            live.append(next_id)
            next_id += 1
        else:
            ops.append(("delete", live.pop(int(rng.integers(len(live))))))
    return data, ops
