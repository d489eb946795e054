"""Hypothesis inputs for the dominance kernel and the sort-filter loop.

Row blocks come in kinds that stress the kernel's equality handling:
uniform floats, small integers (exact row-sum ties by the hundred),
rows drawn from a small pool (exact duplicates), and values from
``{-0.0, 0.0, 1.0}`` (signed zeros that compare equal).
"""

import numpy as np
from hypothesis import strategies as st

KINDS = ("floats", "small-ints", "duplicates", "signed-zeros")


def rows(rng: np.random.Generator, kind: str, n: int, d: int) -> np.ndarray:
    """``n`` rows of ``d`` values of one kind."""
    if kind == "floats":
        return rng.random((n, d))
    if kind == "small-ints":
        return rng.integers(0, 3, (n, d)).astype(np.float64)
    if kind == "duplicates":
        pool = rng.random((max(1, n // 8), d))
        return pool[rng.integers(0, pool.shape[0], n)]
    return rng.choice(np.array([-0.0, 0.0, 1.0]), (n, d))


@st.composite
def blocks(draw, max_rows: int, count: int = 1, min_rows: int = 0):
    """``count`` row blocks of one kind and one dimensionality (1-8)."""
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(
        rows(rng, kind, draw(st.integers(min_rows, max_rows)), d)
        for _ in range(count)
    )
