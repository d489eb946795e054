"""Deterministic fault injection and retry policy for the runtime.

The paper picks MapReduce for its "scalability and fault-tolerance"
(Section 1); this module makes that claim *testable* instead of
assumed. A :class:`FaultPlan` injects task-attempt failures, node
losses, and stragglers into any engine, and a :class:`RetryPolicy`
governs how engines respond (how many attempts, which errors are
worth retrying, whether stragglers get speculative backup copies).

Every injection decision is a pure function of ``(seed, task kind,
task index, attempt)`` via a keyed hash — *not* a shared RNG stream —
so the serial, thread-pool, and process-pool engines see bit-identical
fault schedules regardless of execution order, and a re-run with the
same seed replays the same faults. That determinism is what lets the
equivalence suite assert that skylines survive any fault schedule
unchanged (tests/test_fault_equivalence.py).

Injected failures model Hadoop task crashes: the attempt is charged in
the makespan (the work ran and died) but the task is re-executed from
scratch, so no partial output ever leaks. Node losses fail the first
attempt of every task placed on a lost node; the retry lands elsewhere.
Slowdowns mark an attempt as a straggler: engines with speculation
enabled launch a backup copy on a healthy node and take the first
finisher, exactly Hadoop's speculative execution.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple, Type

from repro.errors import AlgorithmError, JobError, ValidationError
from repro.mapreduce.types import TaskId


class InjectedTaskFailure(JobError):
    """A FaultPlan-injected task crash (transient, always retryable)."""


class NodeLostError(InjectedTaskFailure):
    """The simulated node hosting an attempt was lost mid-task."""


def _unit_hash(*parts) -> float:
    """Map arbitrary parts to a uniform float in [0, 1), deterministically.

    Keyed hashing instead of an RNG stream: the decision for one
    (task, attempt) must not depend on how many other decisions were
    drawn before it, or concurrent engines would disagree.
    """
    payload = "\x1f".join(str(p) for p in parts).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected runtime faults.

    ``fail_rate`` applies to both phases unless overridden per phase;
    a task stops being failure-injected after ``max_failures_per_task``
    attempts, so any plan is survivable with
    ``max_attempts >= min_attempts()``. ``lost_nodes`` kills the first
    attempt of every task whose home node (``index % num_nodes``) is
    lost. ``slow_rate`` marks attempts as stragglers running at
    ``slow_factor``x their normal duration.
    """

    seed: int = 0
    fail_rate: float = 0.0
    map_fail_rate: Optional[float] = None
    reduce_fail_rate: Optional[float] = None
    slow_rate: float = 0.0
    slow_factor: float = 4.0
    lost_nodes: Tuple[int, ...] = ()
    num_nodes: int = 13
    max_failures_per_task: int = 2

    def __post_init__(self):
        rates = {
            "fail_rate": self.fail_rate,
            "map_fail_rate": self.map_fail_rate,
            "reduce_fail_rate": self.reduce_fail_rate,
            "slow_rate": self.slow_rate,
        }
        for name, rate in rates.items():
            if rate is not None and not 0.0 <= rate <= 1.0:
                raise ValidationError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if self.slow_factor < 1.0:
            raise ValidationError(
                f"slow_factor must be >= 1, got {self.slow_factor}"
            )
        if self.num_nodes < 1:
            raise ValidationError(
                f"num_nodes must be >= 1, got {self.num_nodes}"
            )
        if self.max_failures_per_task < 0:
            raise ValidationError(
                "max_failures_per_task must be >= 0, "
                f"got {self.max_failures_per_task}"
            )
        for node in self.lost_nodes:
            if not 0 <= node < self.num_nodes:
                raise ValidationError(
                    f"lost node {node} outside [0, {self.num_nodes})"
                )

    # -- placement ------------------------------------------------------

    def node_of(self, task_id: TaskId) -> int:
        """Home node of a task's first attempt (round-robin placement)."""
        return task_id.index % self.num_nodes

    def phase_fail_rate(self, kind: str) -> float:
        if kind == "map" and self.map_fail_rate is not None:
            return self.map_fail_rate
        if kind == "reduce" and self.reduce_fail_rate is not None:
            return self.reduce_fail_rate
        return self.fail_rate

    # -- injection decisions (pure in (seed, kind, index, attempt)) -----

    def injected_error(
        self, task_id: TaskId, attempt: int
    ) -> Optional[Exception]:
        """The failure injected into this attempt, or ``None``."""
        if attempt == 0 and self.node_of(task_id) in self.lost_nodes:
            return NodeLostError(
                f"node {self.node_of(task_id)} lost while running "
                f"{task_id} attempt {attempt}"
            )
        if attempt >= self.max_failures_per_task:
            return None
        rate = self.phase_fail_rate(task_id.kind)
        if rate <= 0.0:
            return None
        draw = _unit_hash(self.seed, "fail", task_id.kind, task_id.index, attempt)
        if draw < rate:
            return InjectedTaskFailure(
                f"injected failure in {task_id} attempt {attempt} "
                f"(seed={self.seed})"
            )
        return None

    def slowdown(self, task_id: TaskId, attempt: int) -> float:
        """Straggler factor for this attempt (1.0 = normal speed)."""
        if self.slow_rate <= 0.0:
            return 1.0
        draw = _unit_hash(self.seed, "slow", task_id.kind, task_id.index, attempt)
        return self.slow_factor if draw < self.slow_rate else 1.0

    def min_attempts(self) -> int:
        """Smallest ``max_attempts`` guaranteed to survive this plan."""
        node_loss_attempts = 1 if self.lost_nodes else 0
        return self.max_failures_per_task + node_loss_attempts + 1

    def describe(self) -> dict:
        """The plan as a JSON-serializable dict (embedded in run
        reports: a fault schedule is part of a run's configuration)."""
        return {
            "seed": self.seed,
            "fail_rate": self.fail_rate,
            "map_fail_rate": self.map_fail_rate,
            "reduce_fail_rate": self.reduce_fail_rate,
            "slow_rate": self.slow_rate,
            "slow_factor": self.slow_factor,
            "lost_nodes": list(self.lost_nodes),
            "num_nodes": self.num_nodes,
            "max_failures_per_task": self.max_failures_per_task,
        }


#: Error types a retry cannot fix: configuration and programming bugs,
#: and deterministic algorithm preconditions (MR-Bitmap's distinct-value
#: limit fails identically on every attempt). Retrying these burns
#: attempts and masks the real defect.
NON_RETRYABLE_ERRORS: Tuple[Type[BaseException], ...] = (
    ValidationError,
    AlgorithmError,
    NotImplementedError,
    AssertionError,
    TypeError,
    AttributeError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How an engine responds to task-attempt failures.

    Replaces the bare ``max_attempts`` int: in addition to the attempt
    budget it knows which error types are transient (worth re-running)
    versus deterministic programming/validation bugs that would fail
    identically on every attempt.
    """

    max_attempts: int = 1
    non_retryable: Tuple[Type[BaseException], ...] = field(
        default=NON_RETRYABLE_ERRORS
    )

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def is_retryable(self, error: BaseException) -> bool:
        return not isinstance(error, self.non_retryable)

    @classmethod
    def from_attempts(cls, max_attempts: int) -> "RetryPolicy":
        """The policy equivalent of the old bare ``max_attempts`` int."""
        return cls(max_attempts=max_attempts)
