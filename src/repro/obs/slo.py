"""Deterministic SLO telemetry over the serving event stream.

The serving frontends stamp every request-level event with its instant
on the deterministic virtual clock (``at_s``), which makes classic
SRE-style SLO machinery *reproducible*: the same replayed workload
produces the same windows, the same burn rates, and the same
flight-recorder dumps, byte for byte — so CI can gate on them.

:class:`SLOMonitor` subscribes to the frontend's
:class:`~repro.obs.events.EventBus` and consumes only request-level
events (``serve_query_served`` / ``serve_query_rejected`` /
``serve_tenant_shed``; delta/refresh bookkeeping events are ignored so
a sharded and an unsharded replay of the same stream summarize
identically). It maintains:

* **fixed virtual windows** — window ``i`` covers
  ``[i * window_s, (i+1) * window_s)``; per closed window each
  :class:`SLOObjective` computes its error-budget **burn rate**
  ``bad_fraction / (1 - target)`` (burn 1.0 = consuming budget exactly
  at the sustainable rate, ``burn_threshold`` trips the recorder);
* **per-tenant latency digests** — exact nearest-rank p50/p99 over
  served latencies (deterministic, no streaming approximation);
* **per-shard busy digests** — fed from tracer spans on the
  ``shard-*`` / ``worker-*`` tracks via :meth:`SLOMonitor.ingest_spans`;
* a **flight recorder** — a bounded ring of the most recent
  request-level events, snapshotted into a dump whenever a window
  trips a burn threshold or sheds burst past ``shed_burst``.

:meth:`SLOMonitor.summary` renders everything as a JSON-safe dict that
``repro.obs.report.build_serve_run_report`` embeds under ``"slo"``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ValidationError
from repro.obs.report import _round

SLO_KINDS = ("latency", "availability")

#: Cap on the per-objective per-window burn listing in the summary
#: (the worst window and trip counts are always exact).
MAX_BURN_WINDOWS = 64


def exact_percentile(values: Sequence[float], q: float) -> float:
    """Exact order statistic (nearest-rank): no interpolation, so the
    value is always one of the observed samples."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class SLOObjective:
    """One service-level objective over the request stream.

    ``latency``: a *served* request is bad when its latency exceeds
    ``threshold_s``. ``availability``: any rejected request (shed or
    timed out) is bad; ``threshold_s`` is unused. ``target`` is the
    good fraction the objective promises; the per-window burn rate is
    ``bad_fraction / (1 - target)``.
    """

    name: str
    kind: str = "latency"
    threshold_s: Optional[float] = None
    target: float = 0.99
    burn_threshold: float = 10.0

    def __post_init__(self):
        if self.kind not in SLO_KINDS:
            raise ValidationError(
                f"objective kind must be one of {SLO_KINDS}, "
                f"got {self.kind!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValidationError(
                f"target must be in (0, 1), got {self.target}"
            )
        if self.kind == "latency" and (
            self.threshold_s is None or self.threshold_s <= 0
        ):
            raise ValidationError(
                "latency objectives need a positive threshold_s"
            )
        if self.burn_threshold <= 0:
            raise ValidationError(
                f"burn_threshold must be > 0, got {self.burn_threshold}"
            )

    def error_budget(self) -> float:
        return 1.0 - self.target


def default_objectives(workload) -> tuple:
    """Objectives derived from a workload's own admission parameters.

    The latency objective promises 99% of served queries inside half
    the workload's timeout (a query that waited near its full budget
    is an SLO miss even though it was served); the availability
    objective promises 99.9% of requests admitted-and-served, so shed
    bursts burn it fast.
    """
    return (
        SLOObjective(
            name="latency",
            kind="latency",
            threshold_s=workload.timeout_s / 2.0,
            target=0.99,
            burn_threshold=6.0,
        ),
        SLOObjective(
            name="availability",
            kind="availability",
            target=0.999,
            burn_threshold=10.0,
        ),
    )


def default_window_s(workload) -> float:
    """A window that splits the nominal run into ~16 slices.

    Computed from declared workload parameters (not the realized
    makespan), so it is known before the replay starts and identical
    across engines/shard counts.
    """
    return max(workload.num_ops * workload.mean_interarrival_s / 16.0, 1e-9)


class FlightRecorder:
    """Bounded ring of recent request-level events (as dicts)."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValidationError(
                f"recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)

    def record(self, entry: Dict[str, Any]) -> None:
        self._ring.append(entry)

    def snapshot(self) -> List[Dict[str, Any]]:
        return [dict(entry) for entry in self._ring]


class SLOMonitor:
    """Bus subscriber computing windows, burn rates, and dumps."""

    _REQUEST_KINDS = (
        "serve_query_served",
        "serve_query_rejected",
        "serve_tenant_shed",
    )

    def __init__(
        self,
        objectives: Sequence[SLOObjective],
        *,
        window_s: float,
        recorder_capacity: int = 64,
        max_dumps: int = 4,
        shed_burst: int = 8,
    ):
        if not objectives:
            raise ValidationError("SLOMonitor needs at least one objective")
        names = [o.name for o in objectives]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate objective names in {names}")
        if window_s <= 0:
            raise ValidationError(f"window_s must be > 0, got {window_s}")
        if shed_burst < 1:
            raise ValidationError(
                f"shed_burst must be >= 1, got {shed_burst}"
            )
        if max_dumps < 1:
            raise ValidationError(f"max_dumps must be >= 1, got {max_dumps}")
        self.objectives = tuple(objectives)
        self.window_s = float(window_s)
        self.shed_burst = int(shed_burst)
        self.max_dumps = int(max_dumps)
        self.recorder = FlightRecorder(recorder_capacity)
        self.dumps: List[Dict[str, Any]] = []
        self._suppressed_dumps = 0
        self._window: Optional[int] = None
        self._windows_closed = 0
        # Per-objective: totals and the open window's counts.
        self._good = {o.name: 0 for o in self.objectives}
        self._bad = {o.name: 0 for o in self.objectives}
        self._win_good = {o.name: 0 for o in self.objectives}
        self._win_bad = {o.name: 0 for o in self.objectives}
        self._worst_burn = {o.name: 0.0 for o in self.objectives}
        self._worst_window = {o.name: None for o in self.objectives}
        self._tripped = {o.name: 0 for o in self.objectives}
        self._burn_windows = {o.name: [] for o in self.objectives}
        self._burn_dropped = {o.name: 0 for o in self.objectives}
        self._win_sheds = 0
        # Request totals + per-tenant digests.
        self._served = 0
        self._rejected = {"shed": 0, "timeout": 0}
        self._tenant_latencies: Dict[str, List[float]] = {}
        self._tenant_rejected: Dict[str, int] = {}
        self._shard_digests: Dict[str, Dict[str, float]] = {}
        self._finalized = False

    # -- event intake ---------------------------------------------------

    def on_event(self, event) -> None:
        kind = getattr(event, "kind", None)
        if kind not in self._REQUEST_KINDS:
            return
        at_s = float(getattr(event, "at_s", 0.0))
        self._roll_to(int(at_s // self.window_s))
        self.recorder.record(event.as_dict())
        if kind == "serve_query_served":
            self._served += 1
            latency = float(event.latency_s)
            self._tenant_latencies.setdefault(event.tenant, []).append(
                latency
            )
            for objective in self.objectives:
                if objective.kind == "latency":
                    bad = latency > objective.threshold_s
                else:
                    bad = False
                self._count(objective.name, bad)
        elif kind == "serve_query_rejected":
            self._rejected[event.reason] = (
                self._rejected.get(event.reason, 0) + 1
            )
            self._tenant_rejected[event.tenant] = (
                self._tenant_rejected.get(event.tenant, 0) + 1
            )
            if event.reason == "shed":
                self._win_sheds += 1
            for objective in self.objectives:
                if objective.kind == "availability":
                    self._count(objective.name, True)
        # serve_tenant_shed only feeds the recorder: the query-level
        # outcome arrives as its own serve_query_rejected event.

    def _count(self, name: str, bad: bool) -> None:
        if bad:
            self._bad[name] += 1
            self._win_bad[name] += 1
        else:
            self._good[name] += 1
            self._win_good[name] += 1

    def _roll_to(self, window: int) -> None:
        if self._window is None:
            self._window = window
            return
        if window <= self._window:
            # Virtual event times interleave across kinds (a served
            # event fires at its finish instant, which may lie past a
            # later admission's arrival); late events count against
            # the still-open window so the accounting never reopens a
            # closed one.
            return
        self._close_window()
        self._windows_closed += window - self._window
        self._window = window

    def _close_window(self) -> None:
        window = self._window
        for objective in self.objectives:
            name = objective.name
            total = self._win_good[name] + self._win_bad[name]
            if total == 0:
                continue
            bad_fraction = self._win_bad[name] / total
            burn = bad_fraction / objective.error_budget()
            if self._win_bad[name]:
                if len(self._burn_windows[name]) < MAX_BURN_WINDOWS:
                    self._burn_windows[name].append(
                        [int(window), _round(burn)]
                    )
                else:
                    self._burn_dropped[name] += 1
            if burn > self._worst_burn[name] or (
                self._worst_window[name] is None and burn > 0
            ):
                self._worst_burn[name] = burn
                self._worst_window[name] = int(window)
            if burn >= objective.burn_threshold:
                self._tripped[name] += 1
                self._dump(
                    window,
                    reason=f"burn:{name}",
                    burn=burn,
                    objective=name,
                )
            self._win_good[name] = 0
            self._win_bad[name] = 0
        if self._win_sheds >= self.shed_burst:
            self._dump(window, reason="shed-burst", sheds=self._win_sheds)
        self._win_sheds = 0

    def _dump(
        self,
        window: int,
        *,
        reason: str,
        burn: Optional[float] = None,
        objective: Optional[str] = None,
        sheds: Optional[int] = None,
    ) -> None:
        if len(self.dumps) >= self.max_dumps:
            self._suppressed_dumps += 1
            return
        self.dumps.append(
            {
                "window": int(window),
                "window_start_s": _round(window * self.window_s),
                "reason": reason,
                "objective": objective,
                "burn": None if burn is None else _round(burn),
                "sheds": sheds,
                "events": self.recorder.snapshot(),
            }
        )

    # -- span digests ---------------------------------------------------

    def ingest_spans(self, spans) -> None:
        """Fold tracer spans on shard/worker tracks into busy digests."""
        for span in spans:
            track = span.track
            if not (
                track.startswith("shard-") or track.startswith("worker-")
            ):
                continue
            digest = self._shard_digests.setdefault(
                track, {"spans": 0, "busy_s": 0.0, "max_span_s": 0.0}
            )
            digest["spans"] += 1
            digest["busy_s"] += span.duration_s
            digest["max_span_s"] = max(
                digest["max_span_s"], span.duration_s
            )

    # -- output ---------------------------------------------------------

    def finalize(self) -> None:
        """Close the still-open window (call once, after the replay)."""
        if self._finalized:
            return
        self._finalized = True
        if self._window is not None:
            self._close_window()
            self._windows_closed += 1

    def summary(self) -> Dict[str, Any]:
        """JSON-safe, fully deterministic SLO summary."""
        objectives = []
        for objective in self.objectives:
            name = objective.name
            good, bad = self._good[name], self._bad[name]
            total = good + bad
            objectives.append(
                {
                    "name": name,
                    "kind": objective.kind,
                    "threshold_s": (
                        None
                        if objective.threshold_s is None
                        else _round(objective.threshold_s)
                    ),
                    "target": _round(objective.target),
                    "burn_threshold": _round(objective.burn_threshold),
                    "good": good,
                    "bad": bad,
                    "bad_fraction": _round(bad / total) if total else 0.0,
                    "worst_burn": _round(self._worst_burn[name]),
                    "worst_window": self._worst_window[name],
                    "tripped_windows": self._tripped[name],
                    "burn_by_window": self._burn_windows[name],
                    "burn_windows_dropped": self._burn_dropped[name],
                }
            )
        tenants = {}
        for tenant in sorted(
            set(self._tenant_latencies) | set(self._tenant_rejected)
        ):
            latencies = self._tenant_latencies.get(tenant, [])
            tenants[tenant] = {
                "served": len(latencies),
                "rejected": self._tenant_rejected.get(tenant, 0),
                "p50_latency_s": _round(exact_percentile(latencies, 0.50)),
                "p99_latency_s": _round(exact_percentile(latencies, 0.99)),
                "max_latency_s": _round(max(latencies, default=0.0)),
            }
        shards = {
            track: {
                "spans": int(digest["spans"]),
                "busy_s": _round(digest["busy_s"]),
                "max_span_s": _round(digest["max_span_s"]),
            }
            for track, digest in sorted(self._shard_digests.items())
        }
        return {
            "window_s": _round(self.window_s),
            "windows_closed": self._windows_closed,
            "shed_burst": self.shed_burst,
            "requests": {
                "served": self._served,
                "shed": self._rejected.get("shed", 0),
                "timed_out": self._rejected.get("timeout", 0),
            },
            "objectives": objectives,
            "tenants": tenants,
            "shards": shards,
            "flight_recorder": {
                "capacity": self.recorder.capacity,
                "dumps": self.dumps,
                "suppressed_dumps": self._suppressed_dumps,
            },
        }
