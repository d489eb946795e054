"""Algorithm interface and result type.

Every skyline algorithm — the paper's MR-GPSRS/MR-GPMRS, the baselines,
and the centralized references — implements :class:`SkylineAlgorithm`:
configuration lives on the instance, :meth:`compute` takes the data and
the runtime environment and returns a :class:`SkylineResult`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.core.order import as_dataset, normalize
from repro.errors import ValidationError
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.engine import SerialEngine
from repro.mapreduce.metrics import PipelineStats
from repro.obs.events import PipelineEnd, PipelineStart, bus_active


@dataclass
class SkylineResult:
    """Outcome of one skyline computation.

    ``indices`` are row indices into the *caller's* dataset, ascending;
    ``values`` the corresponding rows (in the caller's original scale,
    i.e. before MIN/MAX normalisation). ``stats`` aggregates the
    MapReduce pipeline execution; ``artifacts`` exposes inspectable
    intermediates (grid, bitstring, independent groups, ...).
    """

    indices: np.ndarray
    values: np.ndarray
    stats: PipelineStats
    algorithm: str
    artifacts: Dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    @property
    def runtime_s(self) -> Optional[float]:
        """Simulated cluster makespan (falls back to wall time)."""
        if self.stats.simulated_s is not None:
            return self.stats.simulated_s
        return self.stats.wall_s

    def skyline_fraction(self, cardinality: int) -> float:
        if cardinality <= 0:
            return 0.0
        return len(self) / cardinality

    def id_set(self) -> set:
        return set(self.indices.tolist())


@dataclass
class RunEnvironment:
    """The runtime a computation executes in."""

    cluster: SimulatedCluster = field(default_factory=SimulatedCluster)
    engine: Any = field(default_factory=SerialEngine)
    num_mappers: Optional[int] = None

    def resolved_num_mappers(self) -> int:
        if self.num_mappers is not None:
            if self.num_mappers < 1:
                raise ValidationError(
                    f"num_mappers must be >= 1, got {self.num_mappers}"
                )
            return self.num_mappers
        return self.cluster.map_slots


class SkylineAlgorithm(abc.ABC):
    """Base class: normalisation boundary + environment plumbing."""

    #: Registry name, e.g. "mr-gpmrs"; subclasses override.
    name: str = "abstract"

    def compute(
        self,
        data,
        prefs=None,
        cluster: Optional[SimulatedCluster] = None,
        engine=None,
        num_mappers: Optional[int] = None,
    ) -> SkylineResult:
        """Compute the skyline of ``data``.

        ``prefs`` is a per-dimension MIN/MAX preference (default: all
        MIN, the paper's convention). ``cluster`` configures the
        simulated cluster; ``engine`` the executor; ``num_mappers`` the
        number of input splits (default: one wave of the cluster's map
        slots).
        """
        original = as_dataset(data)
        normalized = normalize(original, prefs)
        env = RunEnvironment(
            cluster=cluster or SimulatedCluster(),
            engine=engine or SerialEngine(),
            num_mappers=num_mappers,
        )
        bus = getattr(env.engine, "bus", None)
        if bus_active(bus):
            bus.emit(PipelineStart(algorithm=self.name))
        result = self._run(normalized, env)
        # Report values from the caller's original (un-negated) data.
        result.values = original[result.indices]
        if bus_active(bus):
            bus.emit(
                PipelineEnd(
                    algorithm=self.name,
                    jobs=len(result.stats.jobs),
                    wall_s=result.stats.wall_s,
                    simulated_s=result.stats.simulated_s,
                    skyline_size=len(result),
                )
            )
        return result

    @abc.abstractmethod
    def _run(self, data: np.ndarray, env: RunEnvironment) -> SkylineResult:
        """Compute over min-is-better ``data``; return indices+stats."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
