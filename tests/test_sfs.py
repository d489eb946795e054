"""Sort-Filter-Skyline tests."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import dominance
from repro.core.dominance import DominanceCounter
from repro.core.pointset import PointSet
from repro.core.reference import bruteforce_skyline_indices
from repro.core.sfs import BLOCK_ROWS, sfs_skyline, sfs_skyline_indices
from repro.errors import DataError
from tests.kernel_inputs import blocks


def per_point_sort_filter(data, counter=None):
    """The per-row sort-filter loop the block-batched one replaced.

    Each row in key order is tested against the window of rows accepted
    before it, and ``counter`` is charged once per non-empty window.
    Exact whenever no row dominates another with the same key.
    """
    n, d = data.shape
    order = np.argsort(dominance.entropy_key(data), kind="stable")
    window = np.empty((n, d))
    keep = np.empty(n, dtype=np.int64)
    size = 0
    for idx in order:
        v = data[idx]
        if size:
            if counter is not None:
                counter.charge(size, 1)
            if dominance.point_dominated_by(v, window[:size]):
                continue
        window[size] = v
        keep[size] = idx
        size += 1
    return keep[:size]


def hides_dominance(data) -> bool:
    """True iff some row dominates another with the same row sum."""
    keys = dominance.entropy_key(data)
    n = data.shape[0]
    return any(
        keys[i] == keys[j] and dominance.dominates(data[i], data[j])
        for i in range(n)
        for j in range(n)
    )


class TestSFS:
    def test_matches_oracle(self, rng):
        data = rng.random((200, 3))
        got = set(sfs_skyline_indices(data).tolist())
        assert got == set(bruteforce_skyline_indices(data).tolist())

    def test_matches_oracle_anticorrelated(self):
        from repro.data.generators import anticorrelated

        data = anticorrelated(150, 4, seed=3)
        got = set(sfs_skyline_indices(data).tolist())
        assert got == set(bruteforce_skyline_indices(data).tolist())

    def test_results_sorted_by_score(self, rng):
        data = rng.random((100, 3))
        idx = sfs_skyline_indices(data)
        scores = data[idx].sum(axis=1)
        assert np.all(np.diff(scores) >= 0)

    def test_empty(self):
        assert sfs_skyline_indices(np.empty((0, 2))).shape == (0,)

    def test_duplicates_kept(self):
        data = np.array([[1.0, 1.0], [1.0, 1.0], [0.5, 2.0]])
        assert sorted(sfs_skyline_indices(data).tolist()) == [0, 1, 2]

    def test_custom_monotone_key(self, rng):
        data = rng.random((80, 2)) + 1.0
        got = set(
            sfs_skyline_indices(
                data, key=lambda a: np.log(a).sum(axis=1)
            ).tolist()
        )
        assert got == set(bruteforce_skyline_indices(data).tolist())

    def test_key_length_validated(self, rng):
        with pytest.raises(DataError):
            sfs_skyline_indices(
                rng.random((10, 2)), key=lambda a: np.ones(3)
            )

    def test_counter_charged(self, rng):
        counter = DominanceCounter()
        sfs_skyline_indices(rng.random((50, 2)), counter=counter)
        assert counter.pairs > 0

    def test_requires_2d(self):
        with pytest.raises(DataError):
            sfs_skyline_indices(np.zeros(4))

    def test_sfs_skyline_returns_rows(self, rng):
        data = rng.random((60, 3))
        rows = sfs_skyline(data)
        expect = data[bruteforce_skyline_indices(data)]
        assert {tuple(r) for r in rows} == {tuple(r) for r in expect}

    def test_negative_values_fine(self):
        data = np.array([[-1.0, -1.0], [0.0, 0.0], [-2.0, 1.0]])
        got = set(sfs_skyline_indices(data).tolist())
        assert got == set(bruteforce_skyline_indices(data).tolist())


class TestBlockBatchedLoop:
    """The block-batched loop against the per-row reference: the same
    skyline in the same order, charged the same comparisons."""

    @settings(max_examples=40, deadline=None)
    @given(drawn=blocks(min_rows=BLOCK_ROWS, max_rows=4 * BLOCK_ROWS))
    def test_matches_per_point_reference(self, drawn):
        (data,) = drawn
        want_counter = DominanceCounter()
        want = per_point_sort_filter(data, want_counter).tolist()
        charged = (want_counter.pairs, want_counter.calls)
        counter = DominanceCounter()
        assert sfs_skyline_indices(data, counter=counter).tolist() == want
        assert (counter.pairs, counter.calls) == charged
        counter = DominanceCounter()
        assert PointSet.from_array(data).local_skyline(counter).ids.tolist() == want
        assert (counter.pairs, counter.calls) == charged

    @settings(max_examples=80, deadline=None)
    @given(
        data=hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 30), st.integers(1, 4)),
            elements=st.floats(-1e300, 1e300),
        )
    )
    # Both sums round to 1e12; the second row dominates the first.
    @example(data=np.array([[1e12, 2e-12], [1e12, 1e-12]]))
    def test_any_floats(self, data):
        """Exact on any finite floats, tied sums included; where no sum
        tie hides a dominance the reference agrees row for row."""
        got = sfs_skyline_indices(data)
        assert sorted(got.tolist()) == bruteforce_skyline_indices(data).tolist()
        assume(not hides_dominance(data))
        assert got.tolist() == per_point_sort_filter(data).tolist()

    def test_tie_run_longer_than_a_block(self):
        """A run of equal keys stays in one block however long it is:
        here the only skyline row comes last in a run of 2.x blocks."""
        m = 2 * BLOCK_ROWS + 7
        data = np.column_stack([np.full(m, 1e12), np.arange(m)[::-1] * 1e-8])
        assert np.unique(dominance.entropy_key(data)).shape == (1,)
        assert sfs_skyline_indices(data).tolist() == [m - 1]
