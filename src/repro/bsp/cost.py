"""Rounds and replication: the BSP cost view of a MapReduce pipeline.

The paper's MR-GPSRS/MR-GPMRS designs are round-and-replication
tradeoffs: independent-group partitioning (Lemma 2, Figure 6) buys
fewer rounds at the price of replicated reducer input. Afrati et al.
("Upper and Lower Bounds on the Cost of a Map-Reduce Computation")
frame that frontier with two numbers:

* **replication rate** ``r`` — record copies delivered to reducers
  divided by distinct source records entering communication;
* **reducer input size** ``q`` — the largest input one reduce peer
  must hold (the memory bound).

Pace ("BSP vs MapReduce") maps each MapReduce round onto two BSP
supersteps — map compute plus the shuffle's h-relation, then reduce
compute — each closed by a barrier. So the whole report is a function
of what each shuffle moved: every engine measures that exchange once,
in the shared shuffle (:meth:`repro.mapreduce.engine.SerialEngine._shuffle`),
onto :class:`~repro.mapreduce.metrics.JobStats`, and
:meth:`CostReport.from_jobs` folds the jobs of a pipeline into rounds,
supersteps, barriers, replication, ``q`` and the per-superstep
*h-relation* degree (max over peers of records/bytes sent or received).

Replication accounting counts logical records
(:func:`repro.mapreduce.sizes.payload_units`): a delivered
:class:`~repro.core.pointset.PointSet` contributes one copy per point,
and distinct sources are counted by point id, so a partition skyline
sent to three reducer groups counts three copies of one source.
Payloads without ids (plain keys/values) count each emission as its
own source — their replication contribution is exactly 1 — so
``replication_rate >= 1`` holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.errors import ValidationError
from repro.mapreduce.metrics import JobStats

#: Decimal places kept for derived rates in ``as_dict`` (matches the
#: run report's simulated-clock rounding).
_RATE_DECIMALS = 9


def afrati_allpairs_bound(source_records: int, reducer_input: int) -> float:
    """Afrati et al.'s all-pairs lower bound ``r >= n / q``.

    The reference curve the cost-frontier bench charts measured
    replication against: for the all-pairs problem on ``n`` inputs with
    reducer memory ``q``, no MapReduce algorithm replicates less than
    ``n / q``. Skyline grouping is an easier communication problem, so
    measured curves sit *below* this bound; it anchors the axes.
    """
    if source_records < 0:
        raise ValidationError(
            f"source_records must be >= 0, got {source_records}"
        )
    if reducer_input <= 0:
        raise ValidationError(
            f"reducer_input must be > 0, got {reducer_input}"
        )
    return source_records / reducer_input


@dataclass(frozen=True)
class SuperstepCost:
    """Measured cost of one executed superstep.

    ``h_records``/``h_bytes`` are the h-relation degree: the maximum
    over peers of max(sent, received) in that superstep's communication
    phase (0 for supersteps that retain their output locally).
    """

    step: int  # superstep index across the pipeline (two per job)
    job: str
    phase: str  # 'map' | 'reduce'
    peers: int
    delivered_records: int = 0
    delivered_bytes: int = 0
    h_records: int = 0
    h_bytes: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "job": self.job,
            "phase": self.phase,
            "peers": self.peers,
            "delivered_records": self.delivered_records,
            "delivered_bytes": self.delivered_bytes,
            "h_records": self.h_records,
            "h_bytes": self.h_bytes,
        }


@dataclass
class CostReport:
    """Rounds/replication cost of a pipeline, folded from its jobs.

    ``rounds`` is the pipeline's MapReduce round count and
    ``replication_rate`` the pipeline-wide Afrati rate.
    """

    rounds: int = 0
    barriers: int = 0
    source_records: int = 0
    delivered_records: int = 0
    delivered_bytes: int = 0
    max_reducer_input_records: int = 0
    max_reducer_input_bytes: int = 0
    supersteps: List[SuperstepCost] = field(default_factory=list)

    @classmethod
    def from_jobs(cls, jobs: Sequence[JobStats]) -> "CostReport":
        """Fold the exchange each job's shuffle measured into the report.

        Each job is one round of two supersteps: the map superstep
        (one peer per map task) carries the shuffle's h-relation, the
        reduce superstep (one peer per reducer) keeps its output local.
        Both end at a barrier.
        """
        report = cls()
        for stats in jobs:
            sent_bytes = [task.bytes_out for task in stats.map_tasks]
            delivered = sum(stats.received_records)
            delivered_bytes = sum(stats.received_bytes)
            report.supersteps.append(
                SuperstepCost(
                    step=report.num_supersteps,
                    job=stats.job_name,
                    phase="map",
                    peers=stats.num_map_tasks,
                    delivered_records=delivered,
                    delivered_bytes=delivered_bytes,
                    h_records=max(
                        stats.sent_records + stats.received_records,
                        default=0,
                    ),
                    h_bytes=max(sent_bytes + stats.received_bytes, default=0),
                )
            )
            report.supersteps.append(
                SuperstepCost(
                    step=report.num_supersteps,
                    job=stats.job_name,
                    phase="reduce",
                    peers=stats.num_reduce_tasks,
                )
            )
            report.rounds += 1
            report.barriers += 2
            report.source_records += stats.source_records
            report.delivered_records += delivered
            report.delivered_bytes += delivered_bytes
            report.max_reducer_input_records = max(
                report.max_reducer_input_records,
                max(stats.received_records, default=0),
            )
            report.max_reducer_input_bytes = max(
                report.max_reducer_input_bytes,
                max(stats.received_bytes, default=0),
            )
        return report

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def replication_rate(self) -> float:
        """Delivered record copies per distinct source record (>= 1).

        A pipeline that never communicated reports the identity rate
        1.0 rather than dividing by zero.
        """
        if self.source_records <= 0:
            return 1.0
        return self.delivered_records / self.source_records

    def as_dict(self) -> Dict[str, Any]:
        """The run-report ``"cost"`` section (deterministic, JSON-safe)."""
        return {
            "rounds": self.rounds,
            "supersteps": self.num_supersteps,
            "barriers": self.barriers,
            "replication_rate": round(self.replication_rate, _RATE_DECIMALS),
            "source_records": self.source_records,
            "delivered_records": self.delivered_records,
            "delivered_bytes": self.delivered_bytes,
            "max_reducer_input_records": self.max_reducer_input_records,
            "max_reducer_input_bytes": self.max_reducer_input_bytes,
            "per_superstep": [step.as_dict() for step in self.supersteps],
        }

    def describe(self) -> str:
        return (
            f"{self.rounds} rounds / {self.num_supersteps} supersteps / "
            f"{self.barriers} barriers, replication "
            f"{self.replication_rate:.3f}x, max reducer input "
            f"{self.max_reducer_input_records} records"
        )
