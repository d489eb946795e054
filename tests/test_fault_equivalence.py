"""Cross-engine fault equivalence: faults change cost, never results.

For every registered MR algorithm, all four engines run under the
same seeded :class:`FaultPlan` — injecting at least one failure into
every map and reduce task, plus stragglers with speculation — and must
produce skylines byte-identical to the fault-free run, identical
counters and attempt histories to each other, and a simulated makespan
that charges the re-executed work.

CI runs this suite per engine at a nonzero fault rate via
``pytest -k serial|threads|processes|contract`` (see
.github/workflows/ci.yml).
"""

from functools import lru_cache

import numpy as np
import pytest

from repro import skyline
from repro.bsp import CostReport
from repro.check.contracts import ContractCheckingEngine
from repro.data.generators import generate
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.engine import SerialEngine
from repro.mapreduce.faults import FaultPlan, RetryPolicy
from repro.mapreduce.parallel import ProcessPoolEngine, ThreadPoolEngine
from repro.mapreduce.trace import build_schedule

MR_ALGORITHMS = [
    "mr-gpsrs",
    "mr-gpmrs",
    "mr-bnl",
    "mr-sfs",
    "mr-angle",
    "mr-bitmap",
    "mr-hybrid",
    "sky-mr",
]

#: Every task fails its first attempt (rate 1.0, one budgeted failure),
#: a quarter of the surviving attempts straggle at 4x, and node 2 of
#: the simulated 5-node placement is lost — at least one failure in
#: every phase of every job, guaranteed deterministically.
PLAN = FaultPlan(
    seed=13,
    fail_rate=1.0,
    max_failures_per_task=1,
    slow_rate=0.25,
    lost_nodes=(2,),
    num_nodes=5,
)
RETRY = RetryPolicy(max_attempts=PLAN.min_attempts())

CLUSTER = SimulatedCluster(num_nodes=4)

ENGINES = {
    "serial": lambda: SerialEngine(retry=RETRY, faults=PLAN, speculative=True),
    "threads": lambda: ThreadPoolEngine(
        max_workers=4, retry=RETRY, faults=PLAN, speculative=True
    ),
    "processes": lambda: ProcessPoolEngine(
        max_workers=2, retry=RETRY, faults=PLAN, speculative=True
    ),
    "contract": lambda: ContractCheckingEngine(
        retry=RETRY, faults=PLAN, speculative=True
    ),
}


def _dataset(algorithm):
    """mr-bitmap only handles discrete domains (paper Section 2.2)."""
    if algorithm == "mr-bitmap":
        rng = np.random.default_rng(21)
        return rng.integers(0, 8, (160, 3)).astype(float)
    return generate("anticorrelated", 160, 3, seed=21)


def _fingerprint(result):
    """Everything that must be engine-independent under faults.

    Wall-clock attempt durations are excluded; outcomes, slowdowns,
    injected errors, counters, and shuffle bytes are not.
    """
    attempts = [
        (
            str(task.task_id),
            tuple(
                (a.attempt, a.outcome, a.slowdown, a.error)
                for a in task.attempts
            ),
        )
        for job in result.stats.jobs
        for task in job.map_tasks + job.reduce_tasks
    ]
    return (
        result.indices.tolist(),
        result.values.tolist(),
        [job.counters.as_dict() for job in result.stats.jobs],
        sum(job.shuffle_bytes for job in result.stats.jobs),
        attempts,
    )


@lru_cache(maxsize=None)
def _clean_run(algorithm):
    return skyline(
        _dataset(algorithm),
        algorithm=algorithm,
        cluster=CLUSTER,
        engine=SerialEngine(),
    )


@lru_cache(maxsize=None)
def _faulty_serial_fingerprint(algorithm):
    result = skyline(
        _dataset(algorithm),
        algorithm=algorithm,
        cluster=CLUSTER,
        engine=ENGINES["serial"](),
    )
    return _fingerprint(result)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("algorithm", MR_ALGORITHMS)
def test_faulty_run_matches_fault_free_skyline(algorithm, engine_name):
    """Same skyline and cost report as the fault-free run; same
    fingerprint (counters, shuffle bytes, per-attempt history) as every
    other engine under the identical fault schedule."""
    clean = _clean_run(algorithm)
    faulty = skyline(
        _dataset(algorithm),
        algorithm=algorithm,
        cluster=CLUSTER,
        engine=ENGINES[engine_name](),
    )
    assert faulty.indices.tolist() == clean.indices.tolist()
    assert faulty.values.tolist() == clean.values.tolist()
    assert (
        CostReport.from_jobs(faulty.stats.jobs).as_dict()
        == CostReport.from_jobs(clean.stats.jobs).as_dict()
    )
    assert _fingerprint(faulty) == _faulty_serial_fingerprint(algorithm)
    # the plan guarantees one injected failure per task, so every phase
    # of every job re-executed at least once
    for job in faulty.stats.jobs:
        for kind in ("map", "reduce"):
            tasks = job._tasks_of(kind)
            assert job.total_attempts(kind) > len(tasks)
    assert faulty.runtime_s > clean.runtime_s


@pytest.mark.parametrize("algorithm", ["mr-gpmrs", "sky-mr"])
def test_schedule_charges_every_attempt(algorithm):
    """build_schedule replays the attempt-expanded makespan exactly and
    places failed/speculative attempts in the Gantt."""
    faulty = skyline(
        _dataset(algorithm),
        algorithm=algorithm,
        cluster=CLUSTER,
        engine=ENGINES["serial"](),
    )
    for job in faulty.stats.jobs:
        schedule = build_schedule(CLUSTER, job)
        assert schedule.makespan_s == pytest.approx(
            CLUSTER.job_makespan(job)
        )
        scheduled_units = sum(len(p.tasks) for p in schedule.phases)
        recorded_attempts = job.total_attempts("map") + job.total_attempts(
            "reduce"
        )
        assert scheduled_units == recorded_attempts
        outcomes = {t.outcome for p in schedule.phases for t in p.tasks}
        assert "failed" in outcomes
