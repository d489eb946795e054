"""Schedule reconstruction and ASCII Gantt rendering.

The makespan model (``SimulatedCluster``) reduces a job to three
numbers; this module exposes the schedule *behind* those numbers —
which task ran on which slot, when — so users can see why a pipeline
costs what it costs (and tests can pin the scheduler's behaviour).

``build_schedule`` replays the same greedy least-loaded-slot policy as
:func:`repro.mapreduce.cluster.schedule_makespan`, so the derived
makespan is identical by construction (tested). With ``barriers`` the
same schedule renders as BSP supersteps, barriers visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.metrics import JobStats, TaskStats
from repro.obs.spans import Span, render_span_rows


@dataclass(frozen=True)
class ScheduledTask:
    """One task attempt's placement in the simulated schedule.

    ``outcome`` distinguishes failed attempts, killed stragglers, and
    speculative backup copies from ordinary successes so the Gantt can
    render re-execution distinctly.
    """

    name: str
    slot: int
    start_s: float
    end_s: float
    outcome: str = "success"

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class PhaseSchedule:
    """One phase (map wave, shuffle, reduce wave) of a job."""

    phase: str  # 'map' | 'shuffle' | 'reduce'
    start_s: float
    end_s: float
    tasks: List[ScheduledTask] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class JobSchedule:
    """The full reconstructed schedule of one job."""

    job_name: str
    phases: List[PhaseSchedule]

    @property
    def makespan_s(self) -> float:
        return self.phases[-1].end_s if self.phases else 0.0


def _attempt_units(cluster: SimulatedCluster, task: TaskStats):
    """Expand one task into its schedulable attempt units.

    Tasks without recorded history schedule as a single success under
    the plain task name (pre-fault behaviour); tasks with several
    attempts get ``/0``, ``/1``, ... suffixes in execution order.
    """
    if not task.attempts:
        return [(str(task.task_id), cluster.task_duration(task), "success")]
    if len(task.attempts) == 1:
        record = task.attempts[0]
        return [
            (str(task.task_id), cluster.attempt_duration(task, record),
             record.outcome)
        ]
    return [
        (
            f"{task.task_id}/{position}",
            cluster.attempt_duration(task, record),
            record.outcome,
        )
        for position, record in enumerate(task.attempts)
    ]


def _schedule_phase(
    cluster: SimulatedCluster,
    tasks: Sequence[TaskStats],
    slots: int,
    phase: str,
    offset: float,
) -> PhaseSchedule:
    units = [u for task in tasks for u in _attempt_units(cluster, task)]
    loads = [0.0] * max(1, min(slots, max(1, len(units))))
    placed: List[ScheduledTask] = []
    for name, duration, outcome in units:
        slot = min(range(len(loads)), key=lambda s: loads[s])
        start = offset + loads[slot]
        placed.append(
            ScheduledTask(
                name=name,
                slot=slot,
                start_s=start,
                end_s=start + duration,
                outcome=outcome,
            )
        )
        loads[slot] += duration
    end = offset + (max(loads) if units else 0.0)
    return PhaseSchedule(phase=phase, start_s=offset, end_s=end, tasks=placed)


def build_schedule(cluster: SimulatedCluster, stats: JobStats) -> JobSchedule:
    """Reconstruct the schedule the makespan model implies."""
    map_phase = _schedule_phase(
        cluster, stats.map_tasks, cluster.map_slots, "map", 0.0
    )
    moved = stats.shuffle_bytes + stats.broadcast_bytes * cluster.num_nodes
    shuffle_end = map_phase.end_s + moved / cluster.bandwidth_bytes_per_s
    shuffle_phase = PhaseSchedule(
        phase="shuffle", start_s=map_phase.end_s, end_s=shuffle_end
    )
    reduce_phase = _schedule_phase(
        cluster, stats.reduce_tasks, cluster.reduce_slots, "reduce", shuffle_end
    )
    return JobSchedule(
        job_name=stats.job_name,
        phases=[map_phase, shuffle_phase, reduce_phase],
    )


def _schedule_track_order(
    schedule: JobSchedule, barriers: bool = False
) -> List[str]:
    """Track names in presentation order: map slots, shuffle (or the
    ``comm`` and ``barrier`` tracks of the barrier view), reduce slots
    — matching phase order."""
    tracks: List[str] = []
    for phase in schedule.phases:
        if phase.phase == "shuffle":
            tracks.extend(("comm", "barrier") if barriers else ("shuffle",))
            continue
        for slot in sorted({t.slot for t in phase.tasks}):
            tracks.append(f"{phase.phase}-slot-{slot}")
    return tracks


def _barrier_span(job: str, superstep: int, start_s: float, end_s: float) -> Span:
    return Span(
        name=f"{job} barrier {superstep}",
        track="barrier",
        start_s=start_s,
        end_s=end_s,
        category="barrier",
        args={"job": job, "superstep": superstep},
    )


def _schedule_to_spans(
    schedule: JobSchedule,
    offset: float = 0.0,
    barrier_s: Optional[float] = None,
) -> Tuple[List[Span], float]:
    """One :class:`~repro.obs.spans.Span` per scheduled attempt unit,
    plus the view's makespan.

    The single simulated-clock source for both renderers: the ASCII
    Gantt and the Chrome-trace export draw these same spans, so the two
    views cannot drift apart.

    ``barrier_s`` switches on the barrier view. Pace ("BSP vs
    MapReduce") maps each job onto two supersteps, map and reduce, each
    closed by a global barrier. The shuffle renders as the map
    superstep's ``comm`` h-relation, each barrier as a ``barrier`` span
    of ``barrier_s`` seconds, and the reduce wave shifts right by the
    first barrier.
    """
    job = schedule.job_name
    spans: List[Span] = []
    shift = 0.0
    for phase in schedule.phases:
        if phase.phase == "shuffle":
            if barrier_s is None:
                name, track, args = f"{job} shuffle", "shuffle", {"job": job}
            else:
                name, track = f"{job} h-relation", "comm"
                args = {"job": job, "superstep": 0}
            spans.append(
                Span(
                    name=name,
                    track=track,
                    start_s=offset + phase.start_s,
                    end_s=offset + phase.end_s,
                    category="shuffle",
                    args=args,
                )
            )
            if barrier_s is not None:
                spans.append(
                    _barrier_span(
                        job,
                        0,
                        offset + phase.end_s,
                        offset + (phase.end_s + barrier_s),
                    )
                )
                shift = barrier_s
            continue
        for task in phase.tasks:
            args = {"job": job, "phase": phase.phase}
            if barrier_s is not None:
                args["superstep"] = 0 if phase.phase == "map" else 1
            spans.append(
                Span(
                    name=task.name,
                    track=f"{phase.phase}-slot-{task.slot}",
                    start_s=offset + shift + task.start_s,
                    end_s=offset + shift + task.end_s,
                    outcome=task.outcome,
                    args=args,
                )
            )
    if barrier_s is None:
        return spans, schedule.makespan_s
    end = shift + schedule.makespan_s
    spans.append(_barrier_span(job, 1, offset + end, offset + end + barrier_s))
    return spans, end + barrier_s


def _barrier_s(cluster: SimulatedCluster, barriers: bool) -> Optional[float]:
    """A barrier is charged one ``task_overhead_s`` of synchronisation,
    the per-task coordination charge the cluster model already uses."""
    return cluster.task_overhead_s if barriers else None


def schedule_spans(
    cluster: SimulatedCluster,
    jobs: Sequence[JobStats],
    barriers: bool = False,
) -> List[Span]:
    """Simulated-clock spans of a job chain, laid out back to back.

    Each job starts where the previous one's makespan ended (jobs in a
    chain run strictly sequentially), one track per simulated slot plus
    the shuffle track (``barriers``: the ``comm`` and ``barrier``
    tracks). This is the ``"simulated"`` clock of the Chrome trace
    written by ``repro-skyline compute --trace-out``.
    """
    spans: List[Span] = []
    offset = 0.0
    for stats in jobs:
        job_spans, makespan = _schedule_to_spans(
            build_schedule(cluster, stats),
            offset,
            _barrier_s(cluster, barriers),
        )
        spans.extend(job_spans)
        offset += makespan
    return spans


def render_gantt(
    schedule: JobSchedule,
    width: int = 64,
    min_label: int = 14,
    barrier_s: Optional[float] = None,
    superstep: int = 0,
) -> str:
    """Plain-text Gantt chart of a job schedule.

    One row per (phase, slot); ``#`` marks busy time, ``x`` a failed or
    killed attempt, ``+`` a speculative backup copy, ``~`` the shuffle.
    Proportional to the makespan, so short tasks may render as a single
    cell; zero-duration phases (e.g. a shuffle that moved no bytes)
    render empty rather than pretending to occupy a column. Column
    painting is half-open: a task ending at time ``t`` and a task
    starting at ``t`` never share a cell.

    ``barrier_s`` renders the barrier view (see
    :func:`_schedule_to_spans`): barriers as ``=`` cells, the job's
    supersteps numbered from ``superstep``.
    """
    if width < 8:
        raise ValidationError(f"width must be >= 8, got {width}")
    spans, total = _schedule_to_spans(schedule, barrier_s=barrier_s)
    if total <= 0:
        return f"{schedule.job_name}: empty schedule"
    if barrier_s is None:
        header = (
            f"{schedule.job_name}: simulated makespan {total:.3f}s "
            f"(1 col = {total / width:.4f}s)"
        )
    else:
        header = (
            f"{schedule.job_name}: supersteps {superstep}-{superstep + 1}, "
            f"simulated makespan {total:.3f}s "
            f"(1 col = {total / width:.4f}s, barriers '=')"
        )
    rows = render_span_rows(
        spans,
        _schedule_track_order(schedule, barriers=barrier_s is not None),
        total,
        width,
        min_label=min_label,
    )
    return "\n".join([header] + rows)


def render_pipeline_gantt(
    cluster: SimulatedCluster,
    jobs: Sequence[JobStats],
    width: int = 64,
    barriers: bool = False,
) -> str:
    """Gantt charts for a chain of jobs, back to back.

    ``barriers`` renders each job as its two supersteps, numbered
    across the chain, with the barriers visible.
    """
    return "\n\n".join(
        render_gantt(
            build_schedule(cluster, stats),
            width,
            barrier_s=_barrier_s(cluster, barriers),
            superstep=2 * index,
        )
        for index, stats in enumerate(jobs)
    )
