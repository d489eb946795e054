"""ContractCheckingEngine: the purity contracts, demonstrably enforced.

Each contract gets a deliberately-broken task that SerialEngine happily
(and wrongly) executes, and the contract engine must reject with a
:class:`ContractViolation`.  Clean jobs must produce byte-identical
pairs and counters to SerialEngine, and every registered algorithm must
run green under the contract engine end to end.
"""

import numpy as np
import pytest

from repro.bsp import CostReport
from repro.check.contracts import ContractCheckingEngine, _shuffled_bucket
from repro.check.fingerprint import fingerprint
from repro.core.pointset import PointSet
from repro.core.reference import bruteforce_skyline_indices
from repro.data import generate
from repro.errors import ContractViolation, ValidationError
from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.engine import SerialEngine
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.splits import kv_splits
from repro.mapreduce.types import IdentityReducer, Mapper, Reducer
from repro.algorithms.registry import available_algorithms, make_algorithm


class EmitMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key % 2, value)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class MutatingMapper(Mapper):
    """Scales its input rows in place — the classic purity bug."""

    def map(self, key, value, ctx):
        value *= 2.0
        ctx.emit(key % 2, float(value.sum()))


class OrderSensitiveReducer(Reducer):
    """Emits the *first* value per key — depends on arrival order."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, values[0])


class ListEmitMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key % 2, [value])


class ValueMutatingReducer(Reducer):
    """Mutates the shuffled value objects themselves while reducing."""

    def reduce(self, key, values, ctx):
        values[0].append(-1)
        ctx.emit(key, len(values))


class CacheMutatingMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.cache.get("shared").append(key)
        ctx.emit(0, value)


class UnhashableKeyMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit([key], value)


def small_job(mapper, reducer, *, values=None, cache=None, **kwargs):
    pairs = list(enumerate(values if values is not None else range(8)))
    return MapReduceJob(
        name="contract-probe",
        splits=kv_splits(pairs, 3),
        mapper_factory=mapper,
        reducer_factory=reducer,
        num_reducers=2,
        cache=cache or DistributedCache(),
        **kwargs,
    )


class TestRejections:
    def test_mutating_mapper_is_rejected(self):
        rows = [np.ones(3) for _ in range(8)]
        job = small_job(MutatingMapper, SumReducer, values=rows)
        with pytest.raises(ContractViolation, match="mutated its input split"):
            ContractCheckingEngine().run(job)

    def test_order_sensitive_reducer_is_rejected(self):
        job = small_job(EmitMapper, OrderSensitiveReducer)
        with pytest.raises(ContractViolation, match="order-sensitive"):
            ContractCheckingEngine().run(job)

    def test_value_mutating_reducer_is_rejected(self):
        job = small_job(ListEmitMapper, ValueMutatingReducer)
        with pytest.raises(ContractViolation, match="mutated its input"):
            ContractCheckingEngine().run(job)

    def test_cache_mutation_is_rejected(self):
        cache = DistributedCache({"shared": []})
        job = small_job(CacheMutatingMapper, IdentityReducer, cache=cache)
        with pytest.raises(ContractViolation, match="distributed-cache"):
            ContractCheckingEngine().run(job)

    def test_unhashable_key_is_rejected(self):
        job = small_job(UnhashableKeyMapper, IdentityReducer)
        with pytest.raises(ContractViolation, match="unhashable key"):
            ContractCheckingEngine().run(job)

    def test_nondeterministic_partitioner_is_rejected(self):
        ticks = iter(range(100))

        def jittery(key, n):
            return next(ticks) % n

        job = small_job(EmitMapper, SumReducer, partitioner=jittery)
        with pytest.raises(ContractViolation, match="nondeterministic"):
            ContractCheckingEngine().run(job)

    def test_violation_is_non_retryable_validation_error(self):
        assert issubclass(ContractViolation, ValidationError)

    def test_serial_engine_misses_all_of_it(self):
        # The point of the contract engine: these bugs run "fine" serially.
        job = small_job(EmitMapper, OrderSensitiveReducer)
        SerialEngine().run(job)


class TestCleanJobsUnchanged:
    def test_results_and_counters_match_serial(self):
        plain = SerialEngine().run(small_job(EmitMapper, SumReducer))
        checked = ContractCheckingEngine().run(small_job(EmitMapper, SumReducer))
        assert sorted(plain.all_pairs()) == sorted(checked.all_pairs())
        assert (
            plain.stats.counters.as_dict() == checked.stats.counters.as_dict()
        )

    def test_shuffle_seed_sweep_stays_clean(self):
        for seed in range(3):
            result = ContractCheckingEngine(shuffle_seed=seed).run(
                small_job(EmitMapper, SumReducer)
            )
            assert dict(result.all_pairs()) == {0: 12, 1: 16}


class TestShuffledBucket:
    def test_multiset_preserved_and_order_changed(self):
        bucket = [("a", i) for i in range(6)] + [("b", 9)]
        shuffled = _shuffled_bucket(list(bucket), seed=1)
        assert sorted(shuffled) == sorted(bucket)
        assert [k for k, _ in shuffled] == [k for k, _ in bucket]
        assert shuffled != bucket

    def test_deterministic_in_seed(self):
        bucket = [(0, i) for i in range(10)]
        assert _shuffled_bucket(list(bucket), 7) == _shuffled_bucket(
            list(bucket), 7
        )
        assert _shuffled_bucket(list(bucket), 7) != _shuffled_bucket(
            list(bucket), 8
        )


class TestFingerprint:
    def test_detects_inplace_array_mutation(self):
        arr = np.arange(6, dtype=np.float64)
        before = fingerprint(arr)
        arr[3] = -1.0
        assert fingerprint(arr) != before

    def test_canonical_mode_ignores_pointset_row_order(self):
        ids = np.array([3, 1, 2], dtype=np.int64)
        vals = np.arange(9, dtype=np.float64).reshape(3, 3)
        a = PointSet(ids, vals)
        perm = np.array([2, 0, 1])
        b = PointSet(ids[perm], vals[perm])
        assert fingerprint(a, canonical=True) == fingerprint(b, canonical=True)
        assert fingerprint(a) != fingerprint(b)

    def test_dicts_and_sets_hash_order_free(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({3, 1, 2}) == fingerprint({2, 3, 1})
        assert fingerprint({1: 2}) != fingerprint({1: 3})


def float_sum_ties(n: int = 400, seed: int = 1) -> np.ndarray:
    """Rows whose float row sums tie although one row dominates another.

    Column 0 is 1e12, 2e12 or 3e12; the other two columns are multiples
    of 1e-7 below 1e-6, which vanish from a row sum at that scale, so a
    sum-presorted scan sees dominating and dominated rows as tied. Few
    distinct values per column, so MR-Bitmap takes the rows as they are.
    """
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 10, n)
    return np.column_stack(
        [
            rng.integers(1, 4, n) * 1e12,
            k * 1e-7,
            (9 - k + rng.integers(0, 3, n)) * 1e-7,
        ]
    )


class TestRealAlgorithms:
    """Every registered MapReduce algorithm honours the contracts."""

    @pytest.mark.parametrize("engine_cls", [ContractCheckingEngine])
    @pytest.mark.parametrize("name", sorted(available_algorithms()))
    def test_algorithm_runs_green_under_contract_engine(
        self, name, engine_cls
    ):
        data = generate("anticorrelated", 600, 3, seed=11)
        if name == "mr-bitmap":
            # MR-Bitmap requires small per-dimension domains (<= 64
            # distinct values, paper Section 2.2).
            data = np.round(data, 1)
        for case in (data, float_sum_ties()):
            result = make_algorithm(name).compute(case, engine=engine_cls())
            expected = bruteforce_skyline_indices(case)
            assert sorted(result.indices.tolist()) == sorted(expected.tolist())

    def test_contract_engine_runs_green_under_faults(self):
        """The contract engine stays green with a FaultPlan active:
        re-executed tasks honour the same purity contracts."""
        from repro.mapreduce.faults import FaultPlan, RetryPolicy

        plan = FaultPlan(seed=9, fail_rate=1.0, max_failures_per_task=1)
        engine = ContractCheckingEngine(
            retry=RetryPolicy(max_attempts=plan.min_attempts()),
            faults=plan,
        )
        data = generate("anticorrelated", 400, 3, seed=12)
        result = make_algorithm("mr-gpmrs").compute(data, engine=engine)
        expected = bruteforce_skyline_indices(data)
        assert sorted(result.indices.tolist()) == sorted(expected.tolist())
        assert CostReport.from_jobs(result.stats.jobs).rounds > 0
