"""PointSet container semantics and dominance operations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dominance import DominanceCounter
from repro.core.pointset import PointSet
from repro.core.reference import bruteforce_skyline_indices
from repro.errors import DataError
from tests.kernel_inputs import blocks


def make(values, start_id=0):
    return PointSet.from_array(np.asarray(values, dtype=np.float64), start_id)


def pairwise_fold(parts, counter=None):
    """The merge :meth:`PointSet.merge_skylines` replaced: fold the parts
    in order, each step cross-filtering the running merge and the next
    part and concatenating what survives on both sides."""
    merged = parts[0]
    for part in parts[1:]:
        if len(merged) == 0:
            merged = part
        elif len(part):
            mine = merged.remove_dominated_by(part, counter)
            theirs = part.remove_dominated_by(merged, counter)
            merged = PointSet.concat([mine, theirs])
    return merged


def skyline_parts(data, cuts):
    """Split ``data`` at ``cuts`` into parts, each its own skyline."""
    bounds = [0, *sorted(min(c, len(data)) for c in cuts), len(data)]
    return [
        PointSet(np.arange(lo, hi), data[lo:hi]).local_skyline()
        for lo, hi in zip(bounds, bounds[1:])
    ]


class TestConstruction:
    def test_from_array_assigns_sequential_ids(self):
        ps = make([[1, 2], [3, 4]], start_id=5)
        assert ps.ids.tolist() == [5, 6]
        assert len(ps) == 2 and ps.dimensionality == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DataError):
            PointSet(np.array([1, 2]), np.zeros((3, 2)))

    def test_values_must_be_2d(self):
        with pytest.raises(DataError):
            PointSet(np.array([0]), np.zeros(3))

    def test_empty(self):
        ps = PointSet.empty(4)
        assert len(ps) == 0 and ps.dimensionality == 4

    def test_concat(self):
        ps = PointSet.concat([make([[1, 1]]), make([[2, 2]], start_id=7)])
        assert ps.ids.tolist() == [0, 7]

    def test_concat_skips_empty_parts(self):
        ps = PointSet.concat([PointSet.empty(2), make([[1, 1]])])
        assert len(ps) == 1

    def test_concat_all_empty_rejected(self):
        with pytest.raises(DataError):
            PointSet.concat([PointSet.empty(2)])

    def test_equality(self):
        assert make([[1, 2]]) == make([[1, 2]])
        assert make([[1, 2]]) != make([[1, 3]])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(make([[1, 2]]))


class TestSelection:
    def test_select_mask(self):
        ps = make([[1, 1], [2, 2], [3, 3]])
        sub = ps.select(np.array([True, False, True]))
        assert sub.ids.tolist() == [0, 2]

    def test_select_indices(self):
        ps = make([[1, 1], [2, 2], [3, 3]])
        sub = ps.select(np.array([2, 0]))
        assert sub.ids.tolist() == [2, 0]

    def test_sort_by(self):
        ps = make([[3, 3], [1, 1], [2, 2]])
        out = ps.sort_by(ps.values.sum(axis=1))
        assert out.ids.tolist() == [1, 2, 0]

    def test_iter(self):
        ps = make([[1, 2]])
        [(pid, row)] = list(ps)
        assert pid == 0 and row.tolist() == [1.0, 2.0]

    def test_copy_is_deep(self):
        ps = make([[1, 2]])
        cp = ps.copy()
        cp.values[0, 0] = 9
        assert ps.values[0, 0] == 1


class TestDominanceOps:
    def test_remove_dominated_by(self):
        target = make([[2, 2], [0, 5]])
        other = make([[1, 1]], start_id=10)
        out = target.remove_dominated_by(other)
        assert out.ids.tolist() == [1]  # [0,5] incomparable with [1,1]

    def test_remove_dominated_by_counts_pairs(self):
        counter = DominanceCounter()
        make([[2, 2], [3, 3]]).remove_dominated_by(
            make([[1, 1]]), counter
        )
        assert counter.pairs == 2  # 1 source x 2 targets

    def test_remove_dominated_by_empty_other_is_noop(self):
        target = make([[2, 2]])
        assert target.remove_dominated_by(PointSet.empty(2)) is target

    def test_local_skyline_matches_oracle(self, rng):
        data = rng.random((120, 3))
        ps = PointSet.from_array(data)
        sky = ps.local_skyline()
        assert sky.id_set() == set(bruteforce_skyline_indices(data).tolist())

    def test_local_skyline_keeps_duplicates(self):
        ps = make([[1, 1], [1, 1], [2, 2]])
        assert ps.local_skyline().id_set() == {0, 1}

    def test_local_skyline_counts_work(self, rng):
        counter = DominanceCounter()
        PointSet.from_array(rng.random((50, 2))).local_skyline(counter)
        assert counter.pairs > 0

    def test_merge_skyline(self, rng):
        data = rng.random((100, 3))
        left = PointSet.from_array(data[:50]).local_skyline()
        right = PointSet(
            np.arange(50, 100), data[50:]
        ).local_skyline()
        merged = PointSet.merge_skylines([left, right])
        assert merged.id_set() == set(
            bruteforce_skyline_indices(data).tolist()
        )

    def test_merge_skyline_empty_sides(self):
        ps = make([[1, 1]])
        empty = PointSet.empty(2)
        assert PointSet.merge_skylines([ps, empty]) is ps
        assert PointSet.merge_skylines([empty, ps]) is ps
        assert PointSet.merge_skylines([empty, ps, empty]) is ps
        assert PointSet.merge_skylines([ps]) is ps

    @settings(max_examples=80, deadline=None)
    @given(
        drawn=blocks(max_rows=60),
        cuts=st.lists(st.integers(0, 60), max_size=5),
    )
    # Row sums tie at 1e12 although row 1 dominates row 0, and row 2
    # repeats row 1 in a later part.
    @example(
        drawn=(np.array([[1e12, 2e-12], [1e12, 1e-12], [1e12, 1e-12]]),),
        cuts=[1, 2],
    )
    def test_merge_skylines_matches_pairwise_fold(self, drawn, cuts):
        """One kernel call gives the fold's rows in the fold's order and
        charges the fold's pairs and calls, for 1-6 parts, empty ones,
        duplicates across parts, ``-0.0`` and tied row sums included."""
        parts = skyline_parts(drawn[0], cuts)
        want_counter = DominanceCounter()
        want = pairwise_fold(parts, want_counter)
        counter = DominanceCounter()
        got = PointSet.merge_skylines(parts, counter)
        assert got.ids.tolist() == want.ids.tolist()
        assert np.array_equal(got.values, want.values)
        assert (counter.pairs, counter.calls) == (
            want_counter.pairs,
            want_counter.calls,
        )
        assert sorted(got.ids.tolist()) == sorted(
            bruteforce_skyline_indices(drawn[0]).tolist()
        )

    def test_merge_skyline_identical_duplicate_sets(self):
        left = make([[1, 1]])
        right = make([[1, 1]], start_id=5)
        merged = PointSet.merge_skylines([left, right])
        assert merged.id_set() == {0, 5}  # equal points never dominate
