"""Experiment harness: run one (workload, algorithm) cell, or a sweep.

A *cell* fixes the workload (distribution, cardinality, dimensionality,
seed) and the algorithm (+options); running it yields the metrics every
figure of the paper plots: simulated cluster runtime, skyline size, and
the partition-comparison counters (Figure 11).

Cells marked ``dnf=True`` reproduce the paper's "cannot terminate in a
reasonable period of time" entries: they are not executed and render as
DNF, exactly as the paper omits those series points. Pass
``include_dnf=True`` to force-run them anyway.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms.registry import make_algorithm
from repro.bsp import CostReport
from repro.data.generators import generate
from repro.errors import ValidationError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.counters import PARTITION_COMPARES

#: Registry names whose constructors accept data-space ``bounds``.
BOUNDS_AWARE = frozenset(
    {"mr-gpsrs", "mr-gpmrs", "mr-bnl", "mr-sfs", "mr-angle", "mr-hybrid"}
)


@dataclass(frozen=True)
class Workload:
    """A synthetic dataset specification."""

    distribution: str
    cardinality: int
    dimensionality: int
    seed: int = 0

    def materialise(self) -> np.ndarray:
        return generate(
            self.distribution,
            self.cardinality,
            self.dimensionality,
            seed=self.seed,
        )

    def label(self) -> str:
        return (
            f"{self.distribution}-c{self.cardinality}-d{self.dimensionality}"
        )


@dataclass(frozen=True)
class Cell:
    """One figure data point: a workload run through one algorithm."""

    workload: Workload
    algorithm: str
    options: tuple = ()  # sorted (key, value) pairs; hashable
    dnf: bool = False

    @classmethod
    def make(cls, workload: Workload, algorithm: str, dnf: bool = False, **options):
        return cls(
            workload=workload,
            algorithm=algorithm,
            options=tuple(sorted(options.items())),
            dnf=dnf,
        )

    def option_dict(self) -> Dict[str, Any]:
        return dict(self.options)


@dataclass
class CellResult:
    """Metrics of one executed (or skipped-as-DNF) cell."""

    cell: Cell
    runtime_s: Optional[float]  # simulated makespan; None = DNF
    wall_s: float = 0.0
    skyline_size: int = 0
    max_mapper_compares: int = 0
    max_reducer_compares: int = 0
    shuffle_bytes: int = 0
    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: Full run report (only populated by ``run_cell(report=True)``).
    report: Optional[Dict[str, Any]] = None
    #: Rounds/replication cost of the run (None for a DNF cell).
    cost: Optional[CostReport] = None

    @property
    def is_dnf(self) -> bool:
        return self.runtime_s is None


_DATA_CACHE: Dict[Workload, np.ndarray] = {}
_DATA_CACHE_LIMIT = 8


def workload_data(workload: Workload) -> np.ndarray:
    """Materialise a workload with a tiny LRU-ish cache (sweeps reuse
    the same dataset across algorithms)."""
    if workload not in _DATA_CACHE:
        if len(_DATA_CACHE) >= _DATA_CACHE_LIMIT:
            _DATA_CACHE.pop(next(iter(_DATA_CACHE)))
        _DATA_CACHE[workload] = workload.materialise()
    return _DATA_CACHE[workload]


def run_cell(
    cell: Cell,
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    include_dnf: bool = False,
    report: bool = False,
) -> CellResult:
    """Execute one cell and collect its metrics.

    With ``report=True``, a telemetry bus with a
    :class:`~repro.obs.metrics.MetricsCollector` observes the run and
    the full machine-readable run report lands in
    :attr:`CellResult.report` (an engine is created if the caller
    supplied none; a caller-supplied engine gets the bus attached for
    the duration of the cell).
    """
    if cell.dnf and not include_dnf:
        return CellResult(cell=cell, runtime_s=None)
    cluster = cluster or SimulatedCluster()
    data = workload_data(cell.workload)
    options = cell.option_dict()
    if cell.algorithm in BOUNDS_AWARE and "bounds" not in options:
        d = cell.workload.dimensionality
        options["bounds"] = (np.zeros(d), np.ones(d))
    algo = make_algorithm(cell.algorithm, **options)
    collector = None
    caller_engine = engine is not None
    if report:
        from repro.mapreduce.engine import SerialEngine
        from repro.obs import EventBus, MetricsCollector

        bus = EventBus()
        collector = bus.subscribe(MetricsCollector())
        if caller_engine:
            previous_bus = getattr(engine, "bus", None)
            engine.bus = bus
        else:
            engine = SerialEngine(bus=bus)
    started = time.perf_counter()
    try:
        result = algo.compute(data, cluster=cluster, engine=engine)
    finally:
        if report and caller_engine:
            engine.bus = previous_bus
    wall = time.perf_counter() - started
    max_map = 0
    max_red = 0
    for job in result.stats.jobs:
        max_map = max(max_map, job.max_task_counter("map", PARTITION_COMPARES))
        max_red = max(
            max_red, job.max_task_counter("reduce", PARTITION_COMPARES)
        )
    cell_report = None
    if report:
        from repro.obs import build_report

        options_json = {
            k: v if isinstance(v, (int, float, str, bool)) else repr(v)
            for k, v in cell.options
        }
        cell_report = build_report(
            result,
            data,
            cluster,
            engine=engine,
            collector=collector,
            config={
                "workload": cell.workload.label(),
                "workload_seed": cell.workload.seed,
                "options": options_json,
            },
        )
    return CellResult(
        cell=cell,
        runtime_s=result.stats.simulated_s,
        wall_s=wall,
        skyline_size=len(result),
        max_mapper_compares=max_map,
        max_reducer_compares=max_red,
        shuffle_bytes=result.stats.total_shuffle_bytes(),
        artifacts=result.artifacts,
        report=cell_report,
        cost=CostReport.from_jobs(result.stats.jobs),
    )


def run_cells(
    cells: Sequence[Cell],
    cluster: Optional[SimulatedCluster] = None,
    engine=None,
    include_dnf: bool = False,
    verbose: bool = False,
) -> List[CellResult]:
    results = []
    for cell in cells:
        result = run_cell(
            cell, cluster=cluster, engine=engine, include_dnf=include_dnf
        )
        if verbose:
            status = (
                "DNF"
                if result.is_dnf
                else f"{result.runtime_s:8.3f}s sky={result.skyline_size}"
            )
            print(
                f"  {cell.workload.label():34s} {cell.algorithm:10s} {status}"
            )
        results.append(result)
    return results


def scaled_cardinality(paper_cardinality: int, scale: float) -> int:
    """Scale a paper cardinality down for laptop-sized runs."""
    if scale <= 0:
        raise ValidationError(f"scale must be positive, got {scale}")
    return max(64, int(round(paper_cardinality * scale)))
