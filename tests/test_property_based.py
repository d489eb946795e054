"""Property-based tests (hypothesis) on the core invariants.

These exercise the data structures with adversarial inputs: duplicate
rows, boundary values, degenerate dimensions, tiny and empty sets.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import dominance
from repro.core.bnl import bnl_skyline_indices
from repro.core.pointset import PointSet
from repro.core.reference import bruteforce_skyline_indices
from repro.core.sfs import sfs_skyline_indices
from repro.grid.bitstring import Bitstring
from repro.grid.grid import Grid
from repro.grid.groups import generate_independent_groups, merge_groups
from repro.grid.regions import in_anti_dominating_region


def datasets(max_rows=40, max_dims=4):
    """Small float datasets; values drawn from a coarse lattice so
    duplicates and boundary collisions actually happen."""
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(0, max_rows), st.integers(1, max_dims)
        ),
        elements=st.sampled_from(
            [0.0, 0.1, 0.25, 0.3, 0.5, 0.5, 0.75, 0.9, 1.0]
        ),
    )


class TestDominanceProperties:
    @given(
        a=st.lists(st.floats(-10, 10), min_size=1, max_size=5),
        b=st.lists(st.floats(-10, 10), min_size=1, max_size=5),
    )
    def test_antisymmetry(self, a, b):
        assume(len(a) == len(b))
        assert not (dominance.dominates(a, b) and dominance.dominates(b, a))

    @given(v=st.lists(st.floats(-10, 10), min_size=1, max_size=5))
    def test_irreflexive(self, v):
        assert not dominance.dominates(v, v)

    @given(
        rows=hnp.arrays(
            np.float64,
            st.tuples(st.just(3), st.integers(1, 4)),
            elements=st.floats(0, 1, width=32),
        )
    )
    def test_transitivity(self, rows):
        a, b, c = rows[0], rows[1], rows[2]
        if dominance.dominates(a, b) and dominance.dominates(b, c):
            assert dominance.dominates(a, c)


class TestSkylineAlgorithmsAgree:
    @settings(max_examples=60, deadline=None)
    @given(data=datasets())
    def test_sfs_equals_bruteforce(self, data):
        got = set(sfs_skyline_indices(data).tolist())
        assert got == set(bruteforce_skyline_indices(data).tolist())

    @settings(max_examples=60, deadline=None)
    @given(data=datasets())
    def test_bnl_equals_bruteforce(self, data):
        got = set(bnl_skyline_indices(data).tolist())
        assert got == set(bruteforce_skyline_indices(data).tolist())

    @settings(max_examples=40, deadline=None)
    @given(data=datasets())
    def test_skyline_is_undominated_and_dominating(self, data):
        """Soundness + completeness of the skyline definition."""
        sky = set(sfs_skyline_indices(data).tolist())
        n = data.shape[0]
        for i in range(n):
            dominated = any(
                dominance.dominates(data[j], data[i])
                for j in range(n)
                if j != i
            )
            assert (i in sky) == (not dominated)


class TestPointSetProperties:
    @settings(max_examples=50, deadline=None)
    @given(data=datasets(max_rows=30))
    def test_split_merge_equals_whole(self, data):
        assume(data.shape[0] >= 2)
        half = data.shape[0] // 2
        left = PointSet.from_array(data[:half]).local_skyline()
        right = PointSet(
            np.arange(half, data.shape[0]), data[half:]
        ).local_skyline()
        merged = PointSet.merge_skylines([left, right])
        assert merged.id_set() == set(
            bruteforce_skyline_indices(data).tolist()
        )

    @settings(max_examples=50, deadline=None)
    @given(data=datasets(max_rows=30))
    def test_local_skyline_idempotent(self, data):
        ps = PointSet.from_array(data).local_skyline()
        again = ps.local_skyline()
        assert again.id_set() == ps.id_set()


class TestGridProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        data=datasets(max_rows=30, max_dims=3),
        n=st.integers(1, 5),
    )
    def test_cell_assignment_in_range(self, data, n):
        assume(data.shape[0] >= 1)
        grid = Grid.unit(n, data.shape[1])
        cells = grid.cell_indices(data)
        assert (cells >= 0).all()
        assert (cells < grid.num_partitions).all()

    @settings(max_examples=50, deadline=None)
    @given(
        data=datasets(max_rows=30, max_dims=3),
        n=st.integers(1, 5),
    )
    def test_pruning_never_discards_skyline_tuples(self, data, n):
        """The load-bearing safety property of Equation 2."""
        assume(data.shape[0] >= 1)
        grid = Grid.unit(n, data.shape[1])
        pruned = Bitstring.from_data(grid, data).prune_dominated()
        cells = grid.cell_indices(data)
        for i in bruteforce_skyline_indices(data):
            assert pruned[int(cells[i])]

    @settings(max_examples=40, deadline=None)
    @given(
        bits=hnp.arrays(np.bool_, st.just(16)),
        reducers=st.integers(1, 6),
    )
    def test_group_generation_covers_and_respects_adr(self, bits, reducers):
        grid = Grid.unit(4, 2)
        bs = Bitstring(grid, bits)
        groups = generate_independent_groups(grid, bs)
        present = set(bs.set_indices().tolist())
        covered = {p for g in groups for p in g.members}
        assert covered == present
        for g in groups:
            members = set(g.members)
            for p in members:
                for q in present:
                    if in_anti_dominating_region(grid, q, p):
                        assert q in members

    @settings(max_examples=40, deadline=None)
    @given(
        bits=hnp.arrays(np.bool_, st.just(16)),
        reducers=st.integers(1, 6),
        strategy=st.sampled_from(["computation", "communication"]),
    )
    def test_merged_responsibility_partition(self, bits, reducers, strategy):
        grid = Grid.unit(4, 2)
        bs = Bitstring(grid, bits)
        groups = generate_independent_groups(grid, bs)
        merged = merge_groups(groups, reducers, strategy)
        assert len(merged) <= max(1, reducers) or not groups
        responsible = [p for m in merged for p in m.responsible]
        assert sorted(responsible) == sorted(set(responsible))
        assert set(responsible) == set(bs.set_indices().tolist())


class TestEndToEndProperty:
    @settings(max_examples=25, deadline=None)
    @given(data=datasets(max_rows=25, max_dims=3), ppd=st.integers(1, 4))
    def test_gpmrs_equals_bruteforce(self, data, ppd):
        assume(data.shape[0] >= 1)
        from repro import skyline

        result = skyline(
            data, algorithm="mr-gpmrs", ppd=ppd, num_reducers=3
        )
        assert set(result.indices.tolist()) == set(
            bruteforce_skyline_indices(data).tolist()
        )
