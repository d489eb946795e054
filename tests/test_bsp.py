"""Rounds and replication as a view over job stats.

Covers the cost model against a hand-computed two-group fixture
(replication 4/3), the ``replication_rate >= 1`` property over random
workloads, the monotone replication-vs-budget frontier, the barrier
view of the schedule (ASCII ``=`` cells and the ``barrier``
Chrome-trace category), the run report's ``cost`` section, and the CLI
surface (``list --engines``, ``compute``/``gantt --barriers``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli, skyline
from repro.bsp import CostReport, afrati_allpairs_bound
from repro.core.pointset import PointSet
from repro.data.generators import generate
from repro.errors import ValidationError
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.engine import SerialEngine
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.splits import kv_splits
from repro.mapreduce.trace import render_pipeline_gantt, schedule_spans
from repro.mapreduce.types import IdentityReducer, Mapper
from repro.obs.spans import chrome_trace_events


class EmitMapper(Mapper):
    """Re-emits its input records unchanged (keys route reducers)."""

    def map(self, key, value, ctx):
        ctx.emit(key, value)


def _two_group_job():
    """The hand-computable fixture: three points {a, b, c}, delivered
    as overlapping groups {a, b} -> reducer 0 and {b, c} -> reducer 1.

    Distinct sources n = 3, delivered copies = 4, so the replication
    rate is exactly 4/3 and the largest reducer input is 2 records.
    """
    values = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]])
    group_a = PointSet(np.array([0, 1]), values[:2])
    group_b = PointSet(np.array([1, 2]), values[1:])
    pairs = [(0, group_a), (1, group_b)]
    return MapReduceJob(
        name="two-groups",
        splits=kv_splits(pairs, 1),
        mapper_factory=EmitMapper,
        reducer_factory=IdentityReducer,
        num_reducers=2,
        partitioner=lambda key, n: key % n,
        cache=DistributedCache(),
    )


class TestCostModel:
    def test_two_group_fixture_replicates_four_thirds(self):
        result = SerialEngine().run(_two_group_job())
        cost = CostReport.from_jobs([result.stats])
        assert cost.rounds == 1
        assert cost.num_supersteps == 2
        assert cost.barriers == 2
        assert cost.source_records == 3
        assert cost.delivered_records == 4
        assert cost.replication_rate == pytest.approx(4 / 3)
        assert cost.max_reducer_input_records == 2
        map_cost, reduce_cost = cost.supersteps
        assert map_cost.phase == "map"
        assert map_cost.delivered_records == 4
        # h-relation degree: the single map peer sends 4 records, each
        # reduce peer receives 2 -> max over peers is 4.
        assert map_cost.h_records == 4
        assert map_cost.h_bytes > 0
        assert reduce_cost.h_records == 0
        # every reducer got one group
        assert len(result.reducer_outputs) == 2

    def test_allpairs_bound_validates_and_divides(self):
        assert afrati_allpairs_bound(12, 4) == 3.0
        with pytest.raises(ValidationError):
            afrati_allpairs_bound(12, 0)
        with pytest.raises(ValidationError):
            afrati_allpairs_bound(-1, 4)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cardinality=st.integers(20, 120),
        num_reducers=st.integers(1, 4),
    )
    def test_replication_rate_at_least_one(
        self, seed, cardinality, num_reducers
    ):
        """Every source record is delivered at least once, whatever the
        workload or reducer count."""
        result = skyline(
            generate("independent", cardinality, 3, seed=seed),
            algorithm="mr-gpmrs",
            engine=SerialEngine(),
            num_reducers=num_reducers,
        )
        cost = CostReport.from_jobs(result.stats.jobs)
        assert cost.replication_rate >= 1.0
        assert cost.delivered_records >= cost.source_records
        assert cost.replication_rate == pytest.approx(
            cost.delivered_records / cost.source_records
        )

    def test_frontier_replication_non_increasing_in_budget(self):
        """Shrinking reducers grows the per-reducer budget q and must
        never cost more replication (the Lemma 2 / Figure 6 frontier)."""
        data = generate("anticorrelated", 1500, 3, seed=7)
        points = []
        for num_reducers in (1, 2, 4):
            result = skyline(
                data,
                algorithm="mr-gpmrs",
                engine=SerialEngine(),
                num_reducers=num_reducers,
                tpp=187,
            )
            cost = CostReport.from_jobs(result.stats.jobs)
            points.append(
                (cost.max_reducer_input_records, cost.replication_rate)
            )
        points.sort()
        rates = [rate for _q, rate in points]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:])), points
        assert rates[-1] == pytest.approx(1.0)  # one reducer: no copies


class TestEquivalenceAndReports:
    def test_run_report_carries_cost_section(self):
        from repro.bench.harness import Cell, Workload, run_cell
        from repro.obs.schema import validate_report

        cell = Cell.make(
            Workload("independent", 200, 3, seed=3), "mr-gpmrs"
        )
        result = run_cell(cell, report=True)
        report = result.report
        assert validate_report(report) == []
        assert report["cost"] == result.cost.as_dict()
        assert report["cost"]["rounds"] > 0
        assert report["cost"]["replication_rate"] >= 1.0
        assert (
            report["cost"]["supersteps"]
            == 2 * report["cost"]["rounds"]
        )


class TestBarrierRendering:
    def _stats(self):
        result = skyline(
            generate("independent", 200, 3, seed=4),
            algorithm="mr-gpmrs",
        )
        return result.stats.jobs

    def test_ascii_gantt_renders_barriers_distinctly(self):
        jobs = self._stats()
        art = render_pipeline_gantt(SimulatedCluster(), jobs, barriers=True)
        assert "=" in art  # barrier cells
        assert "~" in art  # the h-relation, still distinct
        assert "barriers '='" in art
        assert "supersteps 0-1" in art

    def test_chrome_trace_carries_barrier_category(self):
        jobs = self._stats()
        spans = schedule_spans(SimulatedCluster(), jobs, barriers=True)
        records = chrome_trace_events({"simulated": spans})
        categories = {r.get("cat") for r in records if r["ph"] == "X"}
        assert "barrier" in categories
        assert "shuffle" in categories
        barrier_names = [
            r["name"]
            for r in records
            if r["ph"] == "X" and r.get("cat") == "barrier"
        ]
        # two barriers per round, every round rendered
        assert len(barrier_names) == 2 * len(jobs)


class TestCLI:
    def test_list_engines_prints_registry(self, capsys):
        assert cli.main(["list", "--engines"]) == 0
        out = capsys.readouterr().out
        assert "engines:" in out
        assert "ContractCheckingEngine" in out
        for name in ("serial", "threads", "processes", "contract"):
            assert name in out

    def test_compute_barriers_prints_cost_line(self, capsys):
        code = cli.main(
            [
                "compute", "--algo", "mr-gpmrs",
                "--distribution", "independent",
                "-c", "300", "-d", "3",
                "--barriers", "--show", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost:" in out
        assert "replication" in out

    def test_gantt_barriers_shows_barriers(self, capsys):
        code = cli.main(
            [
                "gantt", "--algo", "mr-gpmrs",
                "--distribution", "independent",
                "-c", "300", "-d", "3",
                "--barriers",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "barriers '='" in out
        assert "cost:" in out
