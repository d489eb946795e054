"""Shared algorithm building blocks (repro.algorithms.common) and the
basic MapReduce types."""

from unittest import mock

import numpy as np
import pytest

from repro.algorithms.common import (
    BufferingMapper,
    assemble_result,
    compare_partitions_within,
    merge_partition_skylines,
    partition_local_skylines,
)
from repro.core import dominance
from repro.core.pointset import PointSet
from repro.core.reference import bruteforce_skyline_indices
from repro.errors import AlgorithmError, ValidationError
from repro.grid.bitstring import Bitstring
from repro.grid.grid import Grid
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.counters import PARTITION_COMPARES, TUPLE_COMPARES
from repro.mapreduce.types import TaskContext, TaskId


def ctx(cache=None):
    return TaskContext(TaskId("map", 0), 1, DistributedCache(cache or {}))


class TestTaskTypes:
    def test_task_id_str(self):
        assert str(TaskId("reduce", 3)) == "reduce-0003"

    def test_task_id_validation(self):
        with pytest.raises(ValidationError):
            TaskId("shuffle", 0)
        with pytest.raises(ValidationError):
            TaskId("map", -1)

    def test_context_emit_collects(self):
        c = ctx()
        c.emit("k", 1)
        c.emit("k", 2)
        assert c.output == [("k", 1), ("k", 2)]


class TestBufferingMapper:
    class Recorder(BufferingMapper):
        def finish(self, points, mapper_ctx):
            mapper_ctx.emit("n", len(points))
            mapper_ctx.emit("d", points.dimensionality)

    def test_buffers_whole_split(self):
        mapper = self.Recorder()
        c = ctx({"grid": Grid.unit(2, 3)})
        mapper.setup(c)
        for i in range(5):
            mapper.map(i, np.array([0.1, 0.2, 0.3]), c)
        mapper.cleanup(c)
        assert dict(c.output) == {"n": 5, "d": 3}

    def test_empty_split_uses_grid_dimensionality(self):
        mapper = self.Recorder()
        c = ctx({"grid": Grid.unit(2, 4)})
        mapper.setup(c)
        mapper.cleanup(c)
        assert dict(c.output) == {"n": 0, "d": 4}

    def test_empty_split_uses_bounds_dimensionality(self):
        mapper = self.Recorder()
        c = ctx({"bounds": (np.zeros(5), np.ones(5))})
        mapper.setup(c)
        mapper.cleanup(c)
        assert dict(c.output)["d"] == 5


class TestPartitionLocalSkylines:
    def test_partition_and_filter(self, rng):
        grid = Grid.unit(3, 2)
        data = rng.random((200, 2))
        points = PointSet.from_array(data)
        bitstring = Bitstring.from_data(grid, data).prune_dominated()
        c = ctx()
        skylines = partition_local_skylines(points, grid, bitstring, c)
        # every key is a surviving cell, every set is that cell's skyline
        cells = grid.cell_indices(data)
        for cell, sky in skylines.items():
            assert bitstring[cell]
            members = np.flatnonzero(cells == cell)
            local = set(
                members[bruteforce_skyline_indices(data[members])].tolist()
            )
            assert sky.id_set() == local

    def test_pruned_partitions_excluded(self, rng):
        grid = Grid.unit(2, 2)
        # all mass in the best and worst cells
        good = rng.random((50, 2)) * 0.4
        bad = rng.random((50, 2)) * 0.4 + 0.6
        points = PointSet.from_array(np.vstack([good, bad]))
        bitstring = Bitstring.from_data(grid, points.values).prune_dominated()
        skylines = partition_local_skylines(points, grid, bitstring, ctx())
        assert set(skylines) == {0}  # only the origin cell survives

    def test_empty_points(self):
        grid = Grid.unit(2, 2)
        out = partition_local_skylines(
            PointSet.empty(2), grid, Bitstring(grid), ctx()
        )
        assert out == {}


class TestComparePartitionsWithin:
    def test_removes_cross_partition_false_positives(self, rng):
        grid = Grid.unit(3, 2)
        data = rng.random((300, 2))
        points = PointSet.from_array(data)
        bitstring = Bitstring.from_data(grid, data).prune_dominated()
        c = ctx()
        skylines = partition_local_skylines(points, grid, bitstring, c)
        compare_partitions_within(skylines, grid, c)
        survivors = set()
        for sky in skylines.values():
            survivors |= sky.id_set()
        assert survivors == set(bruteforce_skyline_indices(data).tolist())

    def test_counts_one_per_adr_pair(self):
        grid = Grid.unit(3, 2)
        # cells 0 (0,0), 1 (1,0), 4 (1,1): ADR pairs are
        # 1<-0, 4<-0, 4<-1  => 3 comparisons
        skylines = {
            0: PointSet.from_array(np.array([[0.1, 0.1]])),
            1: PointSet.from_array(np.array([[0.5, 0.1]]), start_id=1),
            4: PointSet.from_array(np.array([[0.5, 0.5]]), start_id=2),
        }
        c = ctx()
        compare_partitions_within(skylines, grid, c)
        assert c.counters[PARTITION_COMPARES] == 3


class TestMergeAndAssemble:
    def test_merge_partition_skylines(self, rng):
        data = rng.random((100, 2))
        chunks = []
        for lo in range(0, 100, 25):
            ids = np.arange(lo, lo + 25)
            ps = PointSet(ids, data[lo : lo + 25]).local_skyline()
            chunks.append({0: ps})
        merged = merge_partition_skylines(chunks, ctx())
        assert merged[0].id_set() == set(
            bruteforce_skyline_indices(data).tolist()
        )

    def test_merge_one_kernel_call_per_merged_cell(self, rng):
        """Cells 0 and 2 get two or more non-empty pieces, one call
        each; cell 1 gets one non-empty piece and needs none."""
        data = rng.random((90, 3))

        def piece(lo, hi):
            return PointSet(np.arange(lo, hi), data[lo:hi]).local_skyline()

        empty = PointSet.empty(3)
        alone = piece(40, 50)
        chunks = [
            {0: piece(0, 20), 1: empty},
            {2: piece(20, 40), 1: alone},
            {0: piece(50, 70), 2: empty},
            {0: piece(70, 80), 2: piece(80, 90)},
        ]
        c = ctx()
        with mock.patch.object(
            dominance, "dominated_mask", wraps=dominance.dominated_mask
        ) as kernel:
            merged = merge_partition_skylines(chunks, c)
        assert kernel.call_count == 2
        assert list(merged) == [0, 1, 2]
        assert merged[1] is alone
        assert c.counters[TUPLE_COMPARES] > 0

    def test_assemble_sorts_and_validates(self):
        a = PointSet(np.array([5, 2]), np.zeros((2, 2)))
        b = PointSet(np.array([9]), np.ones((1, 2)))
        indices, values = assemble_result([(0, a), (1, b)], 2)
        assert indices.tolist() == [2, 5, 9]
        assert values.shape == (3, 2)

    def test_assemble_rejects_duplicate_partitions(self):
        a = PointSet(np.array([1]), np.zeros((1, 2)))
        with pytest.raises(AlgorithmError):
            assemble_result([(3, a), (3, a)], 2)

    def test_assemble_empty(self):
        indices, values = assemble_result([], 4)
        assert indices.shape == (0,)
        assert values.shape == (0, 4)
