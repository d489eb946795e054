"""Cross-engine and cross-path equivalence.

The execution engine is infrastructure, never semantics: every engine
(serial, thread pool, process pool, contract checking) and both input
paths (record-at-a-time vs columnar block) must produce byte-identical
skylines, identical counters, identical shuffle-byte totals and an
identical rounds/replication cost report for every algorithm. This is
the invariant that makes the cost model and the paper's counter
figures engine-independent.
"""

import numpy as np
import pytest

from repro import skyline
from repro.bsp import CostReport
from repro.check.contracts import ContractCheckingEngine
from repro.data.generators import generate
from repro.mapreduce.engine import SerialEngine
from repro.mapreduce.parallel import ProcessPoolEngine, ThreadPoolEngine

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

DISTRIBUTIONS = ["independent", "correlated", "anticorrelated"]


def _fingerprint(result):
    """Everything an engine could plausibly perturb."""
    counters = [job.counters.as_dict() for job in result.stats.jobs]
    shuffle = sum(job.shuffle_bytes for job in result.stats.jobs)
    return (
        result.indices.tolist(),
        result.values.tolist(),
        counters,
        shuffle,
    )


def _run(algorithm, data, engine):
    return _fingerprint(skyline(data, algorithm=algorithm, engine=engine))


def _dataset(algorithm, distribution, n, d, seed):
    """mr-bitmap only handles discrete domains (paper Section 2.2)."""
    if algorithm == "mr-bitmap":
        rng = np.random.default_rng(seed)
        return rng.integers(0, 8, (n, d)).astype(float)
    return generate(distribution, n, d, seed=seed)


@pytest.mark.parametrize("algorithm", MR_ALGORITHMS)
@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_block_path_matches_record_path(algorithm, distribution):
    """The columnar fast path is invisible: same skyline, same
    counters, same shuffle bytes as record-at-a-time."""
    data = _dataset(algorithm, distribution, 220, 3, seed=42)
    record = _run(algorithm, data, SerialEngine(block_path=False))
    block = _run(algorithm, data, SerialEngine())
    assert record == block


@pytest.mark.parametrize("algorithm", MR_ALGORITHMS)
def test_thread_pool_matches_serial(algorithm):
    data = _dataset(algorithm, "anticorrelated", 220, 3, seed=43)
    serial = _run(algorithm, data, SerialEngine())
    threads = _run(algorithm, data, ThreadPoolEngine(max_workers=4))
    assert serial == threads


@pytest.mark.parametrize("algorithm", MR_ALGORITHMS)
def test_bsp_matches_serial(algorithm):
    """The BSP cost view — rounds, replication, h-relations — folds
    from what each shuffle moved, so it is identical under every
    engine and input path."""
    data = _dataset(algorithm, "anticorrelated", 220, 3, seed=43)
    costs = []
    for engine in (
        SerialEngine(),
        ThreadPoolEngine(max_workers=2),
        ProcessPoolEngine(max_workers=2),
        ContractCheckingEngine(),
        SerialEngine(block_path=False),
    ):
        result = skyline(data, algorithm=algorithm, engine=engine)
        costs.append(CostReport.from_jobs(result.stats.jobs).as_dict())
    assert costs[0]["rounds"] == len(result.stats.jobs) > 0
    assert all(cost == costs[0] for cost in costs[1:])


@pytest.mark.parametrize("algorithm", MR_ALGORITHMS)
def test_process_pool_matches_serial(algorithm):
    data = _dataset(algorithm, "anticorrelated", 180, 3, seed=44)
    serial = _run(algorithm, data, SerialEngine())
    processes = _run(algorithm, data, ProcessPoolEngine(max_workers=2))
    assert serial == processes


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_all_engines_agree_bytewise(distribution):
    """One workload through all engines at once (headline algorithm)."""
    data = generate(distribution, 260, 4, seed=45)
    prints = [
        _run("mr-gpmrs", data, engine)
        for engine in (
            SerialEngine(block_path=False),
            SerialEngine(),
            ThreadPoolEngine(max_workers=3),
            ProcessPoolEngine(max_workers=2),
            ContractCheckingEngine(),
        )
    ]
    assert all(p == prints[0] for p in prints[1:])


def test_record_and_block_paths_agree_on_tiny_inputs():
    """Empty-ish splits: more mappers than rows."""
    for n in (1, 2, 5):
        data = generate("independent", n, 3, seed=46)
        record = _run("mr-gpmrs", data, SerialEngine(block_path=False))
        block = _run("mr-gpmrs", data, SerialEngine())
        assert record == block, n


def test_engine_reprs_show_configuration():
    assert "block_path=False" in repr(SerialEngine(block_path=False))
    assert "max_workers=7" in repr(ThreadPoolEngine(max_workers=7))
    assert "max_workers=3" in repr(ProcessPoolEngine(max_workers=3))
