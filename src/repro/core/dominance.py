"""Tuple dominance (Definition 1 of the paper) — scalar and vectorised.

All functions assume min-is-better data (see :mod:`repro.core.order`).
A tuple ``a`` dominates ``b`` iff ``a`` is not worse on every dimension
and strictly better on at least one:

    a ≺ b  ⇔  (∀k: a[k] <= b[k]) ∧ (∃k: a[k] < b[k])

The vectorised helpers are the work-horses of every local-skyline
computation; they are chunked so the intermediate boolean slabs stay
bounded regardless of input size.
"""

from __future__ import annotations


import numpy as np

from repro.errors import DataError

#: Upper bound (in bool elements) for the comparison slabs one chunk of
#: :func:`dominated_mask` holds at once. 2**24 bools = 16 MiB.
_CHUNK_BUDGET = 1 << 24

#: Up to this many element comparisons, one broadcast over a
#: ``(against, cand, d)`` tensor beats the per-dimension slab passes,
#: whose cost at that size is all per-call overhead.
_SMALL_BLOCK = 1 << 10


def dominates(a, b) -> bool:
    """Return True iff tuple ``a`` dominates tuple ``b`` (a ≺ b)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DataError(f"dimensionality mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def compare(a, b) -> int:
    """Three-way dominance compare.

    Returns ``-1`` if ``a ≺ b``, ``1`` if ``b ≺ a``, ``0`` if the two
    tuples are incomparable or equal.
    """
    if dominates(a, b):
        return -1
    if dominates(b, a):
        return 1
    return 0


def _row_chunks(n_rows: int, row_width: int) -> int:
    """Rows per chunk such that rows*width stays under the budget."""
    if n_rows == 0:
        return 1
    return max(1, _CHUNK_BUDGET // max(1, row_width))


def dominated_by_point(point: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Boolean mask over ``block`` rows dominated by ``point``."""
    point = np.asarray(point, dtype=np.float64).ravel()
    block = np.asarray(block, dtype=np.float64)
    le = point <= block
    lt = point < block
    return le.all(axis=1) & lt.any(axis=1)


def point_dominated_by(point: np.ndarray, block: np.ndarray) -> bool:
    """True iff any row of ``block`` dominates ``point``."""
    point = np.asarray(point, dtype=np.float64).ravel()
    block = np.asarray(block, dtype=np.float64)
    if block.shape[0] == 0:
        return False
    le = block <= point
    lt = block < point
    return bool((le.all(axis=1) & lt.any(axis=1)).any())


def _reduce(slab: np.ndarray, first: bool):
    """Reduce a dominance slab to ``(hit, index)`` per candidate.

    The mask form takes an ``(against, cand)`` slab and reduces it with
    ``any``; ``index`` is None. The ``first`` form takes a
    ``(cand, against)`` slab, so ``argmax`` runs along contiguous rows
    and stops at each row's first hit; ``index`` is that hit's column.
    """
    if not first:
        return slab.any(axis=0), None
    index = slab.argmax(axis=1)
    return slab[np.arange(slab.shape[0]), index], index


def _slab_hits(columns: np.ndarray, cand: np.ndarray, first: bool):
    """:func:`_reduce` over the slab of ``columns`` against ``cand``.

    Both arguments are transposed blocks, one row per dimension. Each
    dimension takes one in-place ``<=`` and one ``==`` pass over a 2-D
    slab, laid out as :func:`_reduce` expects.
    """
    if first:
        rows, cand = columns[:, None, :], cand[:, :, None]
    else:
        rows = columns[:, :, None]
    le = rows[0] <= cand[0]
    eq = rows[0] == cand[0]
    work = np.empty_like(le)
    for k in range(1, rows.shape[0]):
        le &= np.less_equal(rows[k], cand[k], out=work)
        eq &= np.equal(rows[k], cand[k], out=work)
    le &= np.invert(eq, out=eq)
    return _reduce(le, first)


def _answer(hit: np.ndarray, index, m: int) -> np.ndarray:
    """The mask, or the first dominator's index with ``m`` for none."""
    return hit if index is None else np.where(hit, index, m)


def dominated_mask(
    candidates: np.ndarray, against: np.ndarray, *, first: bool = False
) -> np.ndarray:
    """Mask over ``candidates`` rows dominated by any row of ``against``.

    With ``first``, return instead, for each candidate, the index of the
    first ``against`` row that dominates it, or ``len(against)`` where
    none does.

    The slab kernel: a row of ``against`` dominates a candidate where
    ``<=`` held on every dimension and ``==`` did not, both tested one
    dimension at a time over 2-D boolean slabs. Memory-bounded:
    ``against`` is swept in chunks whose three slabs stay under
    ``_CHUNK_BUDGET`` bools, and rows already known to be dominated are
    skipped in later chunks (their first dominator lies in the chunk
    that hit them).
    """
    candidates = np.asarray(candidates, dtype=np.float64)
    against = np.asarray(against, dtype=np.float64)
    n = candidates.shape[0]
    m = against.shape[0]
    if n == 0 or m == 0:
        return np.full(n, m, dtype=np.intp) if first else np.zeros(n, dtype=bool)
    if candidates.shape[1] != against.shape[1]:
        raise DataError(
            f"dimensionality mismatch: {candidates.shape[1]} vs {against.shape[1]}"
        )
    if n * m * candidates.shape[1] <= _SMALL_BLOCK:
        if first:
            x, y = against[None, :, :], candidates[:, None, :]
        else:
            x, y = against[:, None, :], candidates[None, :, :]
        slab = (x <= y).all(axis=2) & (x < y).any(axis=2)
        return _answer(*_reduce(slab, first), m)
    columns = against.T
    cand = candidates.T
    step = _row_chunks(m, 3 * n)
    if step >= m:
        return _answer(*_slab_hits(columns, cand, first), m)
    out = np.full(n, m, dtype=np.intp) if first else np.zeros(n, dtype=bool)
    alive = np.arange(n)
    start = 0
    while start < m and alive.size:
        hit, index = _slab_hits(columns[:, start : start + step], cand, first)
        out[alive[hit]] = True if index is None else start + index[hit]
        alive = alive[~hit]
        cand = cand[:, ~hit]
        start += step
        # Re-derive the chunk step from the *surviving* candidate
        # count: as candidates are eliminated the slabs shrink, so
        # later sweeps can take proportionally larger bites of
        # ``against`` under the same memory budget.
        step = _row_chunks(m - start, 3 * alive.size)
    return out


def entropy_key(data: np.ndarray) -> np.ndarray:
    """Monotone sort key used by SFS-style presorting.

    The sum of coordinates is monotone w.r.t. dominance: if ``a ≺ b``
    then ``sum(a) < sum(b)``; therefore after an ascending sort no tuple
    can be dominated by a later one. (The classic SFS paper uses an
    entropy function ``sum(ln(1+v))``; any monotone score yields the
    same guarantee, and the plain sum is cheaper and does not require
    non-negative data.)
    """
    data = np.asarray(data, dtype=np.float64)
    return data.sum(axis=1)


def skyline_mask_bruteforce(data: np.ndarray) -> np.ndarray:
    """O(n^2) reference skyline mask. The oracle for all tests.

    Deliberately simple and independent from every optimised code path.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and dominates(data[j], data[i]):
                mask[i] = False
                break
    return mask


def is_skyline_of(candidate: np.ndarray, data: np.ndarray) -> bool:
    """Check that ``candidate`` rows are exactly the skyline of ``data``.

    Set comparison on rows (duplicates collapsed); useful in tests and
    sanity assertions.
    """
    data = np.asarray(data, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    expected = data[skyline_mask_bruteforce(data)]
    expect_set = {tuple(r) for r in expected.tolist()}
    got_set = {tuple(r) for r in candidate.reshape(-1, data.shape[1]).tolist()}
    return expect_set == got_set


class DominanceCounter:
    """Counts tuple-level dominance work for instrumentation.

    The vectorised helpers perform many comparisons per call; callers
    that need Figure-11-style accounting wrap their calls and record the
    number of *pairwise tuple comparisons* each vectorised operation is
    equivalent to.
    """

    __slots__ = ("pairs", "calls")

    def __init__(self) -> None:
        self.pairs = 0
        self.calls = 0

    def charge(self, left_rows: int, right_rows: int) -> None:
        """Record a block comparison of ``left_rows`` x ``right_rows``."""
        self.pairs += int(left_rows) * int(right_rows)
        self.calls += 1

    def charge_each(self, left_rows: np.ndarray) -> None:
        """Record one ``charge(r, 1)`` per non-zero entry ``r``.

        A sort-filter pass compares each scanned row against the rows
        accepted before it; ``left_rows`` holds those accepted-prefix
        counts, so a batched pass charges exactly what the per-row
        window scan would have.
        """
        left_rows = np.asarray(left_rows, dtype=np.int64)
        self.pairs += int(left_rows.sum())
        self.calls += int(np.count_nonzero(left_rows))

    def merge(self, other: "DominanceCounter") -> None:
        self.pairs += other.pairs
        self.calls += other.calls

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DominanceCounter(pairs={self.pairs}, calls={self.calls})"
