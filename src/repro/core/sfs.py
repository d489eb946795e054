"""Sort-Filter-Skyline (SFS) [Chomicki, Godfrey, Gryz, Liang 2003].

Presort the data by a monotone scoring function, then filter with a
window. Because the score is monotone w.r.t. dominance, a tuple can only
be dominated by tuples before it in the order or tied with it, so the
window never needs eviction — each survivor is final. This is the one
sort-filter loop of the library: the MR-SFS baseline, the centralized
``sfs`` method and :meth:`repro.core.pointset.PointSet.local_skyline`
all run it.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core import dominance
from repro.errors import DataError


#: Presorted rows filtered per batch; a block grows past this size
#: rather than split a run of equal sort keys.
BLOCK_ROWS = 256


def sfs_skyline_indices(
    data: np.ndarray,
    counter: Optional[dominance.DominanceCounter] = None,
    key: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """Indices (into ``data``) of the skyline via sort-filter.

    ``key`` maps the dataset to a 1-D monotone score (default: row sum,
    see :func:`repro.core.dominance.entropy_key`). Returned indices are
    ascending in that score.

    The presorted rows are filtered a block at a time: first against
    the window of rows accepted from earlier blocks, then against the
    block's own survivors. A block never splits a run of equal scores,
    and the in-block test looks both ways, so rows whose scores tie
    (which a float score can do even when one row dominates the other)
    are filtered correctly. ``counter`` is charged what the per-row
    window scan charges: one comparison of each row against every row
    accepted before it.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError(f"dataset must be 2-D, got shape {data.shape}")
    n = data.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    scores = (key or dominance.entropy_key)(data)
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.shape[0] != n:
        raise DataError("sort key must produce one score per row")
    order = np.argsort(scores, kind="stable")
    rows = data[order]
    scores = scores[order]
    keep = np.empty(n, dtype=bool)
    window = rows[:0]
    start = 0
    while start < n:
        stop = min(start + BLOCK_ROWS, n)
        if stop < n and scores[stop] == scores[stop - 1]:
            stop = int(np.searchsorted(scores, scores[stop - 1], side="right"))
        block = rows[start:stop]
        alive = ~dominance.dominated_mask(block, window)
        survivors = block[alive]
        alive[alive] = ~dominance.dominated_mask(survivors, survivors)
        keep[start:stop] = alive
        window = np.concatenate((window, block[alive]))
        start = stop
    if counter is not None:
        counter.charge_each(np.cumsum(keep) - keep)
    return order[keep]


def sfs_skyline(data: np.ndarray, **kwargs) -> np.ndarray:
    """Skyline rows (values, not indices) via sort-filter."""
    data = np.asarray(data, dtype=np.float64)
    return data[sfs_skyline_indices(data, **kwargs)]
