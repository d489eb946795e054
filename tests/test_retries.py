"""Task-retry fault tolerance (Hadoop's max-attempts behaviour)."""

import threading

import numpy as np
import pytest

from repro import skyline
from repro.errors import AlgorithmError, TaskFailedError, ValidationError
from repro.mapreduce.engine import SerialEngine
from repro.mapreduce.faults import RetryPolicy
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.parallel import ThreadPoolEngine
from repro.mapreduce.splits import kv_splits
from repro.mapreduce.types import IdentityReducer, Mapper, Reducer
from repro.obs.events import EventBus, EventLog, TaskAttemptStart


class FlakyOnce:
    """Injects one failure per task id, then succeeds."""

    def __init__(self):
        self.failed = set()
        self.lock = threading.Lock()

    def maybe_fail(self, task_key):
        with self.lock:
            if task_key not in self.failed:
                self.failed.add(task_key)
                raise RuntimeError(f"injected failure in {task_key}")


def make_flaky_mapper(flaky: FlakyOnce):
    class FlakyMapper(Mapper):
        def map(self, key, value, ctx):
            flaky.maybe_fail(("map", ctx.task_id.index))
            ctx.emit(key % 2, value)

    return FlakyMapper


def make_flaky_reducer(flaky: FlakyOnce):
    class FlakyReducer(Reducer):
        def reduce(self, key, values, ctx):
            flaky.maybe_fail(("reduce", ctx.task_id.index))
            ctx.emit(key, sum(values))

    return FlakyReducer


def flaky_job(flaky, reducer_factory=None):
    return MapReduceJob(
        name="flaky",
        splits=kv_splits([(i, i) for i in range(12)], 3),
        mapper_factory=make_flaky_mapper(flaky),
        reducer_factory=reducer_factory or IdentityReducer,
        num_reducers=2,
    )


class TestSerialRetries:
    def test_default_single_attempt_fails(self):
        with pytest.raises(TaskFailedError):
            SerialEngine().run(flaky_job(FlakyOnce()))

    def test_retry_recovers_map_failures(self):
        engine = SerialEngine(max_attempts=2)
        result = engine.run(flaky_job(FlakyOnce()))
        values = sorted(v for _, v in result.all_pairs())
        assert values == list(range(12))

    def test_retry_recovers_reduce_failures(self):
        flaky = FlakyOnce()
        job = MapReduceJob(
            name="flaky-r",
            splits=kv_splits([(i, i) for i in range(12)], 3),
            mapper_factory=make_flaky_mapper(FlakyOnce()),  # never fails twice
            reducer_factory=make_flaky_reducer(flaky),
            num_reducers=2,
        )
        result = SerialEngine(max_attempts=3).run(job)
        assert sum(v for _, v in result.all_pairs()) == sum(range(12))

    def test_retried_task_state_is_fresh(self):
        """A retried attempt must not see partial output of the failed
        attempt (fresh mapper, fresh context)."""
        flaky = FlakyOnce()

        class EmitThenFail(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(key, value)  # emit BEFORE possibly failing
                flaky.maybe_fail(("map", ctx.task_id.index))

        job = MapReduceJob(
            name="fresh",
            splits=kv_splits([(i, i) for i in range(6)], 2),
            mapper_factory=EmitThenFail,
            reducer_factory=IdentityReducer,
            num_reducers=1,
        )
        result = SerialEngine(max_attempts=2).run(job)
        # no duplicated records from the failed first attempts
        assert len(result.all_pairs()) == 6

    def test_exhausted_attempts_raise_with_cause(self):
        class AlwaysFails(Mapper):
            def map(self, key, value, ctx):
                raise RuntimeError("persistent")

        job = MapReduceJob(
            name="doomed",
            splits=kv_splits([(0, 1)], 1),
            mapper_factory=AlwaysFails,
            reducer_factory=IdentityReducer,
        )
        with pytest.raises(TaskFailedError) as exc:
            SerialEngine(max_attempts=3).run(job)
        assert "persistent" in str(exc.value)

    def test_validates_max_attempts(self):
        with pytest.raises(ValidationError):
            SerialEngine(max_attempts=0)

    def test_attempt_history_recorded_on_recovery(self):
        engine = SerialEngine(max_attempts=2)
        result = engine.run(flaky_job(FlakyOnce()))
        for task in result.stats.map_tasks:
            outcomes = [a.outcome for a in task.attempts]
            assert outcomes == ["failed", "success"]


class TestNonRetryableErrors:
    """Programming/validation bugs fail identically on every attempt:
    retrying them burns the budget and masks the real defect."""

    def make_counting_mapper(self, error):
        calls = []

        class BrokenMapper(Mapper):
            def map(self, key, value, ctx):
                calls.append(ctx.task_id.index)
                raise error

        return BrokenMapper, calls

    def one_split_job(self, mapper_factory):
        return MapReduceJob(
            name="broken",
            splits=kv_splits([(0, 1)], 1),
            mapper_factory=mapper_factory,
            reducer_factory=IdentityReducer,
        )

    def test_validation_error_not_retried(self):
        factory, calls = self.make_counting_mapper(
            ValidationError("bad config")
        )
        with pytest.raises(TaskFailedError) as exc:
            SerialEngine(max_attempts=4).run(self.one_split_job(factory))
        assert len(calls) == 1  # no burned attempts
        assert "bad config" in str(exc.value)

    def test_type_error_not_retried(self):
        factory, calls = self.make_counting_mapper(TypeError("bad call"))
        with pytest.raises(TaskFailedError):
            SerialEngine(max_attempts=4).run(self.one_split_job(factory))
        assert len(calls) == 1

    def test_algorithm_error_not_retried(self):
        """MR-Bitmap's distinct-value limit fails in the reduce task the
        same way on every attempt: one attempt, AlgorithmError as the
        cause."""
        bus = EventBus()
        log = bus.subscribe(EventLog())
        engine = SerialEngine(retry=RetryPolicy(max_attempts=4), bus=bus)
        with pytest.raises(TaskFailedError) as exc:
            skyline(
                np.random.default_rng(0).random((300, 2)),
                algorithm="mr-bitmap",
                engine=engine,
            )
        assert isinstance(exc.value.__cause__, AlgorithmError)
        starts = [
            event
            for event in log.events
            if isinstance(event, TaskAttemptStart)
            and event.task_id == "reduce-0000"
        ]
        assert len(starts) == 1

    def test_transient_error_still_retried(self):
        factory, calls = self.make_counting_mapper(RuntimeError("flaky"))
        with pytest.raises(TaskFailedError):
            SerialEngine(max_attempts=3).run(self.one_split_job(factory))
        assert len(calls) == 3  # full budget spent

    def test_custom_policy_overrides_default(self):
        factory, calls = self.make_counting_mapper(
            ValidationError("transient here")
        )
        engine = SerialEngine(
            retry=RetryPolicy(max_attempts=2, non_retryable=())
        )
        with pytest.raises(TaskFailedError):
            engine.run(self.one_split_job(factory))
        assert len(calls) == 2  # everything retryable under this policy

    def test_engine_exposes_policy_budget(self):
        engine = SerialEngine(retry=RetryPolicy(max_attempts=5))
        assert engine.max_attempts == 5


class TestThreadPoolRetries:
    def test_retry_recovers(self):
        engine = ThreadPoolEngine(max_workers=3, max_attempts=2)
        result = engine.run(flaky_job(FlakyOnce()))
        values = sorted(v for _, v in result.all_pairs())
        assert values == list(range(12))

    def test_algorithm_completes_on_flaky_engine(self, oracle, rng):
        """An MR skyline survives injected single failures."""
        from repro import skyline

        data = rng.random((200, 3))
        result = skyline(
            data,
            algorithm="mr-gpmrs",
            engine=SerialEngine(max_attempts=4),
        )
        assert set(result.indices.tolist()) == oracle(data)
