"""Per-task and per-job execution statistics.

Captured by the engines, consumed by the cluster makespan model and the
Figure-11 measurements (which need the per-task *maxima* of the
partition-comparison counter, not the sums).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ValidationError
from repro.mapreduce.counters import Counters
from repro.mapreduce.types import TaskId

#: Attempt outcomes recorded by the engines.
#: ``success``     — the attempt finished and its output was used.
#: ``failed``      — the attempt crashed (real or injected) and was retried.
#: ``killed``      — a straggler attempt killed when its speculative
#:                   backup finished first (Hadoop kills the loser).
#: ``speculative`` — a backup copy of a straggler; when present it is
#:                   the winning attempt.
ATTEMPT_OUTCOMES = ("success", "failed", "killed", "speculative")


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of one task: what happened and what it cost.

    ``slowdown`` is the straggler factor the fault plan injected into
    this attempt (1.0 = normal); the cluster model charges the attempt
    at ``base_cost * slowdown``. ``node`` is the simulated home node
    when a fault plan placed the attempt, else ``None``.
    """

    attempt: int
    outcome: str
    duration_s: float = 0.0
    slowdown: float = 1.0
    error: Optional[str] = None
    node: Optional[int] = None

    def __post_init__(self):
        if self.outcome not in ATTEMPT_OUTCOMES:
            raise ValidationError(
                f"unknown attempt outcome {self.outcome!r}; "
                f"expected one of {ATTEMPT_OUTCOMES}"
            )


@dataclass
class TaskStats:
    """One task's execution record.

    ``attempts`` is the full per-attempt history (failed attempts,
    killed stragglers, speculative copies, and the winner — in that
    execution order, winner last). Engines always populate it; an empty
    list (hand-built stats) is treated as a single successful attempt
    by the cluster model.
    """

    task_id: TaskId
    duration_s: float
    records_in: int
    records_out: int
    bytes_out: int
    counters: Counters = field(default_factory=Counters)
    attempts: List[AttemptRecord] = field(default_factory=list)

    @property
    def num_attempts(self) -> int:
        return len(self.attempts) if self.attempts else 1

    @property
    def failed_attempts(self) -> int:
        return sum(1 for a in self.attempts if a.outcome == "failed")

    @property
    def speculative_attempts(self) -> int:
        return sum(1 for a in self.attempts if a.outcome == "speculative")


@dataclass
class JobStats:
    """Aggregated statistics of one MapReduce job."""

    job_name: str
    map_tasks: List[TaskStats] = field(default_factory=list)
    reduce_tasks: List[TaskStats] = field(default_factory=list)
    shuffle_bytes: int = 0
    broadcast_bytes: int = 0
    counters: Counters = field(default_factory=Counters)
    #: The shuffle's exchange, measured once by every engine; the input
    #: of :meth:`repro.bsp.cost.CostReport.from_jobs`. Distinct source
    #: records (point ids deduplicated per map task, plus one per id-less
    #: record), logical records sent by each map task, and records and
    #: bytes received by each reducer. Bytes sent by map task ``i`` are
    #: ``map_tasks[i].bytes_out``.
    source_records: int = 0
    sent_records: List[int] = field(default_factory=list)
    received_records: List[int] = field(default_factory=list)
    received_bytes: List[int] = field(default_factory=list)

    @property
    def num_map_tasks(self) -> int:
        return len(self.map_tasks)

    @property
    def num_reduce_tasks(self) -> int:
        return len(self.reduce_tasks)

    def map_durations(self) -> List[float]:
        return [t.duration_s for t in self.map_tasks]

    def reduce_durations(self) -> List[float]:
        return [t.duration_s for t in self.reduce_tasks]

    def total_cpu_s(self) -> float:
        return sum(self.map_durations()) + sum(self.reduce_durations())

    def max_task_counter(self, kind: str, name: str) -> int:
        """Maximum of counter ``name`` over tasks of ``kind``.

        Figure 11 plots exactly this: "the numbers from the real
        executions are recorded for the mapper and the reducer that have
        the highest number of comparisons".
        """
        tasks = self._tasks_of(kind)
        if not tasks:
            return 0
        return max(t.counters[name] for t in tasks)

    def sum_task_counter(self, kind: str, name: str) -> int:
        return sum(t.counters[name] for t in self._tasks_of(kind))

    def _tasks_of(self, kind: str) -> List[TaskStats]:
        if kind == "map":
            return self.map_tasks
        if kind == "reduce":
            return self.reduce_tasks
        raise ValidationError(
            f"unknown task kind {kind!r}; expected 'map' or 'reduce'"
        )

    def total_attempts(self, kind: str) -> int:
        """Total attempts (including failed and speculative) per phase."""
        return sum(t.num_attempts for t in self._tasks_of(kind))


@dataclass
class PipelineStats:
    """Statistics of a chain of jobs (e.g. bitstring job -> skyline job)."""

    jobs: List[JobStats] = field(default_factory=list)
    wall_s: float = 0.0
    simulated_s: Optional[float] = None

    def job(self, name: str) -> JobStats:
        for stats in self.jobs:
            if stats.job_name == name:
                return stats
        raise KeyError(f"no job named {name!r} in pipeline")

    def counters(self) -> Counters:
        merged = Counters()
        for stats in self.jobs:
            merged.merge(stats.counters)
        return merged

    def total_shuffle_bytes(self) -> int:
        return sum(stats.shuffle_bytes for stats in self.jobs)

    def total_cpu_s(self) -> float:
        return sum(stats.total_cpu_s() for stats in self.jobs)

    def summary(self) -> Dict[str, float]:
        """Headline numbers as a flat dict.

        ``simulated_s`` is present only when a cluster model annotated
        the run — absent means "no simulation", which a ``-1.0``
        sentinel (the old encoding) silently poisoned in downstream
        arithmetic.
        """
        summary = {
            "jobs": len(self.jobs),
            "wall_s": self.wall_s,
            "cpu_s": self.total_cpu_s(),
            "shuffle_bytes": self.total_shuffle_bytes(),
        }
        if self.simulated_s is not None:
            summary["simulated_s"] = self.simulated_s
        return summary
