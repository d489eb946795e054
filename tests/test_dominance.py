"""Tuple dominance semantics (Definition 1) and vectorised helpers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.core import dominance
from repro.errors import DataError
from tests.kernel_inputs import blocks


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominance.dominates([1, 1], [2, 2])

    def test_better_on_one_equal_on_rest(self):
        assert dominance.dominates([1, 2], [1, 3])

    def test_equal_tuples_do_not_dominate(self):
        assert not dominance.dominates([1, 2], [1, 2])

    def test_incomparable(self):
        assert not dominance.dominates([1, 3], [2, 1])
        assert not dominance.dominates([2, 1], [1, 3])

    def test_antisymmetric(self):
        assert dominance.dominates([0, 0], [1, 1])
        assert not dominance.dominates([1, 1], [0, 0])

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DataError):
            dominance.dominates([1, 2], [1, 2, 3])

    def test_single_dimension(self):
        assert dominance.dominates([1], [2])
        assert not dominance.dominates([2], [2])


class TestCompare:
    def test_three_way(self):
        assert dominance.compare([1, 1], [2, 2]) == -1
        assert dominance.compare([2, 2], [1, 1]) == 1
        assert dominance.compare([1, 2], [2, 1]) == 0
        assert dominance.compare([1, 2], [1, 2]) == 0


class TestVectorised:
    def test_dominated_by_point(self):
        block = np.array([[2.0, 2.0], [0.5, 0.5], [1.0, 3.0], [1.0, 1.0]])
        mask = dominance.dominated_by_point(np.array([1.0, 1.0]), block)
        # dominates the worse row, the equal-on-one/worse-on-other row,
        # but not the better row or its own duplicate
        assert mask.tolist() == [True, False, True, False]

    def test_point_dominated_by(self):
        block = np.array([[2.0, 2.0], [0.5, 0.5]])
        assert dominance.point_dominated_by(np.array([1.0, 1.0]), block)
        assert not dominance.point_dominated_by(np.array([0.1, 0.1]), block)

    def test_point_dominated_by_empty_block(self):
        assert not dominance.point_dominated_by(
            np.array([1.0]), np.empty((0, 1))
        )

    def test_dominated_mask_matches_scalar(self, rng):
        cand = rng.random((40, 3))
        against = rng.random((60, 3))
        mask = dominance.dominated_mask(cand, against)
        for i in range(cand.shape[0]):
            expect = any(
                dominance.dominates(against[j], cand[i])
                for j in range(against.shape[0])
            )
            assert mask[i] == expect

    def test_dominated_mask_empty_inputs(self):
        assert dominance.dominated_mask(
            np.empty((0, 2)), np.ones((3, 2))
        ).shape == (0,)
        assert not dominance.dominated_mask(
            np.ones((3, 2)), np.empty((0, 2))
        ).any()

    def test_dominated_mask_dim_mismatch(self):
        with pytest.raises(DataError):
            dominance.dominated_mask(np.ones((2, 2)), np.ones((2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(pair=blocks(max_rows=40, count=2))
    @example(
        pair=(
            np.random.default_rng(0).random((50, 4)),
            np.random.default_rng(1).random((70, 4)),
        )
    )
    def test_dominated_mask_chunking(self, pair):
        """The slab kernel matches the brute-force mask, under the
        default chunk budget and under one so tiny that ``against`` is
        swept a row at a time."""
        cand, against = pair
        expect = [
            any(dominance.dominates(a, c) for a in against) for c in cand
        ]
        assert dominance.dominated_mask(cand, against).tolist() == expect
        with mock.patch.object(dominance, "_CHUNK_BUDGET", 64):
            assert dominance.dominated_mask(cand, against).tolist() == expect


    @settings(max_examples=60, deadline=None)
    @given(pair=blocks(max_rows=40, count=2))
    @example(
        pair=(
            np.random.default_rng(2).integers(0, 3, (50, 4)).astype(float),
            np.random.default_rng(3).integers(0, 3, (70, 4)).astype(float),
        )
    )
    def test_first_dominator(self, pair):
        """``first=True`` gives each candidate's first dominating
        ``against`` row, ``len(against)`` for none, under the default
        chunk budget and a 64-bool one."""
        cand, against = pair
        m = len(against)
        expect = [
            next((j for j in range(m) if dominance.dominates(against[j], c)), m)
            for c in cand
        ]
        got = dominance.dominated_mask(cand, against, first=True)
        assert got.tolist() == expect
        with mock.patch.object(dominance, "_CHUNK_BUDGET", 64):
            got = dominance.dominated_mask(cand, against, first=True)
            assert got.tolist() == expect

    def test_first_dominator_empty_inputs(self):
        got = dominance.dominated_mask(np.ones((3, 2)), np.empty((0, 2)), first=True)
        assert got.tolist() == [0, 0, 0]
        got = dominance.dominated_mask(np.empty((0, 2)), np.ones((3, 2)), first=True)
        assert got.shape == (0,)


class TestEntropyKey:
    def test_monotone_wrt_dominance(self, rng):
        data = rng.random((50, 3))
        keys = dominance.entropy_key(data)
        for i in range(50):
            for j in range(50):
                if dominance.dominates(data[i], data[j]):
                    assert keys[i] < keys[j]

    def test_handles_negative_values(self):
        keys = dominance.entropy_key(np.array([[-5.0, 1.0], [0.0, 0.0]]))
        assert keys.tolist() == [-4.0, 0.0]


class TestBruteforceMask:
    def test_simple(self):
        data = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        mask = dominance.skyline_mask_bruteforce(data)
        assert mask.tolist() == [True, False, True]

    def test_duplicates_all_kept(self):
        data = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        mask = dominance.skyline_mask_bruteforce(data)
        assert mask.tolist() == [True, True, False]

    def test_is_skyline_of(self):
        data = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        assert dominance.is_skyline_of(data[:2], data)
        assert not dominance.is_skyline_of(data, data)


class TestDominanceCounter:
    def test_charge_and_merge(self):
        a = dominance.DominanceCounter()
        a.charge(10, 5)
        assert a.pairs == 50 and a.calls == 1
        b = dominance.DominanceCounter()
        b.charge(2, 2)
        a.merge(b)
        assert a.pairs == 54 and a.calls == 2
