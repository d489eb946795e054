"""The three workloads: what they run, time and check.

Sample counts are fixed by ``--seconds`` through a nominal time per
sample, never by the clock, so a run always collects the same number of
samples and every percentile sits at the same rank from run to run.
Every timing is taken on the wall clock and corrected for host speed
with the interleaved reference of :mod:`host`; the raw figures travel
beside the corrected ones as diagnostics.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import host
import inputs

import repro
from repro.mapreduce import counters as counter_names
from repro.serve.frontend import QueryFrontend
from repro.serve.index import SkylineIndex

#: Set-ups measured per batch run, one per data set; the median is
#: reported.
BATCH_SETUPS = 3

#: Data sets a batch run cycles through.
DATASETS = 4

#: Fewest timed calls a batch run makes, whatever ``--seconds`` says.
MIN_CALLS = 30


@dataclass(frozen=True)
class BatchSpec:
    distribution: str
    dimensionality: int
    cardinality: int
    algorithm: str
    #: Seconds per timed call with its reference, on a host where the
    #: reference takes 30-40 ms; sizes the run from ``--seconds``.
    nominal_call_s: float


@dataclass(frozen=True)
class ServeSpec:
    """A closed-loop replay shaped like the ``mixed-anticorrelated`` mix."""

    initial: int = 2000
    dimensionality: int = 3
    num_ops: int = 2500
    query_fraction: float = 0.8
    region_fraction: float = 0.5
    region_pool: int = 8
    cache_capacity: int = 64
    staleness_budget: int = 128
    #: Ops between two reference runs.
    chunk: int = 500
    #: Share of queries whose answer is checked against the oracle.
    check_fraction: float = 0.005
    #: Seconds per replay of one stream, references and checks included,
    #: on the same host.
    nominal_pass_s: float = 0.9


BATCH = {
    "batch-indep": BatchSpec("independent", 3, 20_000, "mr-gpsrs", 0.21),
    "batch-anticorr": BatchSpec("anticorrelated", 5, 4_000, "mr-gpmrs", 0.45),
}
SERVE = {"serve-mixed": ServeSpec()}
WORKLOADS = tuple(BATCH) + tuple(SERVE)

#: The end-to-end metrics every workload reports, all corrected for host
#: speed except ``peak_rss_mb``.
END_TO_END = ("setup_s", "p50_ms", "tail_ms", "ops_per_s", "peak_rss_mb")

#: Virtual seconds between arrivals: far longer than any op's virtual
#: service time, so the server is always idle when an op arrives and
#: every op is served inside its own call (no queueing, shed or timeout).
ARRIVAL_GAP_S = 1e3

#: Per-call counts that must repeat exactly for the same input.
GUARDED_COUNTERS = (
    counter_names.TUPLE_COMPARES,
    counter_names.PARTITION_COMPARES,
)


class Checker:
    """Counts attempted and failed ops and keeps the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def guard(self, ok: bool, problem: str) -> None:
        """A run-level check: not an op, but the run is wrong without it."""
        if not ok and len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def batch_inputs(spec: BatchSpec, seed) -> Tuple[np.ndarray, np.ndarray]:
    """The data set and its skyline row ids, from the oracle.

    Data sets with no point in the lower orthant are drawn again: see
    :func:`inputs.spans_lower_orthant`.
    """
    rng = np.random.default_rng(seed)
    generate = inputs.GENERATORS[spec.distribution]
    data = generate(rng, spec.cardinality, spec.dimensionality)
    while not inputs.spans_lower_orthant(data):
        data = generate(rng, spec.cardinality, spec.dimensionality)
    return data, inputs.skyline_rows(data)


def batch_counts(result) -> Dict[str, int]:
    """The exact per-call counts of one ``skyline()`` result."""
    counters = result.stats.counters()
    out = {name: counters.get(name) for name in GUARDED_COUNTERS}
    out[counter_names.SHUFFLE_BYTES] = result.stats.total_shuffle_bytes()
    out["pipeline.skyline_size"] = len(result)
    return out


class BatchCaller:
    """Runs and checks ``skyline()`` calls on the data sets of one run.

    A run cycles through ``DATASETS`` data sets drawn from its seed: the
    work of one data set varies by several percent with the seed (the
    tuple compares follow the skyline size), and the mix evens that out.
    """

    def __init__(self, spec: BatchSpec, seed: int, checker: Checker):
        self.spec = spec
        self.sets = [batch_inputs(spec, [seed, k]) for k in range(DATASETS)]
        self.checker = checker
        self.counts: List[Optional[Dict[str, int]]] = [None] * DATASETS

    def call(self, k: int, data=None) -> Tuple[float, object]:
        """Seconds one call on data set ``k`` took, and its result (None
        if it raised). ``data`` replaces the stored array of that set."""
        k %= DATASETS
        data = self.sets[k][0] if data is None else data
        start = time.perf_counter()
        try:
            result = repro.skyline(data, algorithm=self.spec.algorithm)
        except Exception as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - start
            self.checker.fail(f"skyline() raised {exc!r}")
            return elapsed, None
        elapsed = time.perf_counter() - start
        self.check(k, result)
        return elapsed, result

    def check(self, k: int, result) -> None:
        expected = self.sets[k][1]
        self.checker.op(
            np.array_equal(result.indices, expected),
            f"skyline ids differ from the oracle on data set {k} "
            f"({len(result)} rows, expected {len(expected)})",
        )
        counts = batch_counts(result)
        if self.counts[k] is None:
            self.counts[k] = counts
        self.checker.guard(
            counts == self.counts[k],
            f"exact counts changed between calls: {counts} != {self.counts[k]}",
        )


def corrected(raw_s: List[float], refs: List[float], per: int = 1) -> List[float]:
    """Scale each sample (in s) to ms on the nominal host.

    A reference ran before every ``per`` samples and after the last one,
    so sample ``i`` sits between ``refs[i // per]`` and the next. The mean
    of that pair, each smoothed over its neighbours, stands for the host
    speed during the sample.
    """
    smooth = host.smoothed(refs)
    return [
        raw * 2e3 * host.REF_NOMINAL_MS / (smooth[i // per] + smooth[i // per + 1])
        for i, raw in enumerate(raw_s)
    ]


def cycle_rates(ms: List[float]) -> List[float]:
    """Calls per second of each full cycle through the data sets."""
    return [
        1e3 * DATASETS / sum(ms[i : i + DATASETS])
        for i in range(0, len(ms) - DATASETS + 1, DATASETS)
    ]


def run_batch(name: str, seed: int, seconds: float) -> Dict:
    spec = BATCH[name]
    checker = Checker()
    caller = BatchCaller(spec, seed, checker)

    # Set-up: materialise a data set and make one warm-up call on it.
    setup_raw, setup_refs = [], [host.reference_ms()]
    for k in range(BATCH_SETUPS):
        start = time.perf_counter()
        fresh = np.array(caller.sets[k][0], dtype=np.float64, copy=True)
        caller.call(k, fresh)
        setup_raw.append(time.perf_counter() - start)
        setup_refs.append(host.reference_ms())

    calls = max(MIN_CALLS, round(seconds / spec.nominal_call_s))
    raw, refs = [], [host.reference_ms()]
    for i in range(calls):
        elapsed, _ = caller.call(i)
        raw.append(elapsed)
        refs.append(host.reference_ms())

    lat = corrected(raw, refs)
    raw_ms = [r * 1e3 for r in raw]
    setup = corrected(setup_raw, setup_refs)
    tail = host.tail(lat)
    return {
        "checker": checker,
        "metrics": {
            "setup_s": statistics.median(setup) / 1e3,
            "p50_ms": statistics.median(lat),
            "tail_ms": tail["value"],
            "ops_per_s": statistics.median(cycle_rates(lat)),
            "peak_rss_mb": peak_rss_mb(),
        },
        "diagnostics": {
            "samples": len(lat),
            "tail_percentile": tail["percentile"],
            "host.ref_ms": statistics.median(refs),
            "raw.setup_s": statistics.median(setup_raw),
            "raw.p50_ms": statistics.median(raw_ms),
            "raw.tail_ms": host.tail(raw_ms)["value"],
            "raw.ops_per_s": statistics.median(cycle_rates(raw_ms)),
            "counts": caller.counts[0],
        },
    }


# -- serve-mixed -----------------------------------------------------------


@dataclass(frozen=True)
class Stream:
    data: np.ndarray
    ops: list
    #: Positions of the queries whose answers are checked.
    checked: frozenset


def serve_inputs(spec: ServeSpec, seed: int, stream: int) -> Stream:
    """Stream number ``stream`` of a run with ``seed``."""
    rng = np.random.default_rng([seed, stream])
    data, ops = inputs.serve_stream(
        rng,
        initial=spec.initial,
        d=spec.dimensionality,
        num_ops=spec.num_ops,
        query_fraction=spec.query_fraction,
        region_fraction=spec.region_fraction,
        region_pool=spec.region_pool,
    )
    checked = frozenset(
        i
        for i, op in enumerate(ops)
        if op[0] == "query" and rng.random() < spec.check_fraction
    )
    return Stream(data, ops, checked)


class LiveSet:
    """The benchmark's own copy of the live points, for the oracle."""

    def __init__(self, data: np.ndarray):
        self.rows = {i: data[i] for i in range(len(data))}

    def apply(self, op) -> None:
        if op[0] == "insert":
            self.rows[op[2]] = np.asarray(op[1], dtype=np.float64)
        elif op[0] == "delete":
            del self.rows[op[1]]

    def skyline_ids(self, region=None) -> np.ndarray:
        ids = np.fromiter(self.rows, dtype=np.int64, count=len(self.rows))
        values = np.vstack(list(self.rows.values()))
        sky = inputs.skyline_rows(values)
        inside = inputs.in_region(values[sky], region)
        return np.sort(ids[sky][inside])


# Op classes: the latency modes of the closed loop.
HIT, MISS_ALL, MISS_REGION = "hit", "miss-all", "miss-region"
INSERT, DELETE, REPAIR, REFRESH = "insert", "delete", "repair", "refresh"
QUERY_CLASSES = (HIT, MISS_ALL, MISS_REGION)
UPDATE_CLASSES = (INSERT, DELETE, REPAIR, REFRESH)


def build_frontend(spec: ServeSpec, data) -> QueryFrontend:
    """The program's set-up: index (with its first refresh) + frontend."""
    index = SkylineIndex(data, staleness_budget=spec.staleness_budget)
    return QueryFrontend(
        index,
        policy="delta",
        cache_capacity=spec.cache_capacity,
        timeout_s=10 * ARRIVAL_GAP_S,
    )


def serve_counts(frontend: QueryFrontend) -> Dict[str, int]:
    counters = frontend.counters
    return {
        "serve.index.batch_refresh.count": frontend.index.refreshes,
        "serve.delta_repairs": counters.get(counter_names.SERVE_DELTA_REPAIRS),
        "serve.cache_hits": counters.get(counter_names.SERVE_CACHE_HITS),
        counter_names.TUPLE_COMPARES: counters.get(counter_names.TUPLE_COMPARES),
    }


def replay(
    spec, frontend, data, ops, checked, checker, refs
) -> Tuple[List[float], List[str]]:
    """Closed loop over ``ops``: per-op seconds and op classes.

    Unless ``refs`` is None, appends a reference run to it before every
    chunk and after the last one. Checks that every query is served
    inside its own call, and checks the sampled answers and the final
    skyline against the oracle.
    """
    index = frontend.index
    counters = frontend.counters
    live = LiveSet(data)
    elapsed: List[float] = []
    classes: List[str] = []
    now = 0.0
    clock = time.perf_counter
    for pos, op in enumerate(ops):
        if refs is not None and pos % spec.chunk == 0:
            refs.append(host.reference_ms())
        now += ARRIVAL_GAP_S
        kind = op[0]
        hits = counters.get(counter_names.SERVE_CACHE_HITS)
        repairs = counters.get(counter_names.SERVE_DELTA_REPAIRS)
        refreshes = index.refreshes
        answered = len(frontend.responses)
        start = clock()
        try:
            if kind == "query":
                frontend.submit_query(now, op[1])
            elif kind == "insert":
                frontend.apply_insert(now, op[1], op[2])
            else:
                frontend.apply_delete(now, op[1])
        except Exception as exc:  # an op that raises is a failed op
            elapsed.append(clock() - start)
            classes.append(kind)
            checker.fail(f"op {pos} ({kind}) raised {exc!r}")
            continue
        elapsed.append(clock() - start)
        live.apply(op)
        if index.refreshes != refreshes:
            cls = REFRESH
        elif kind == "query":
            if counters.get(counter_names.SERVE_CACHE_HITS) != hits:
                cls = HIT
            else:
                cls = MISS_ALL if op[1] is None else MISS_REGION
        elif kind == "delete" and counters.get(
            counter_names.SERVE_DELTA_REPAIRS
        ) != repairs:
            cls = REPAIR
        else:
            cls = kind
        classes.append(cls)
        if kind != "query":
            checker.op(True)
            continue
        served = len(frontend.responses) == answered + 1 and (
            frontend.responses[-1].status == "ok"
        )
        ok, problem = served, f"query {pos} was not served inside its call"
        if served and pos in checked:
            got = np.sort(frontend.responses[-1].result.ids)
            want = live.skyline_ids(op[1])
            ok = np.array_equal(got, want)
            problem = f"query {pos}: {len(got)} ids, oracle has {len(want)}"
        checker.op(ok, problem)
    if refs is not None:
        refs.append(host.reference_ms())
    want = live.skyline_ids()
    checker.guard(
        np.array_equal(index.skyline_ids(), want),
        f"final skyline differs from the oracle ({len(want)} ids)",
    )
    return elapsed, classes


def mode_margin(classes: List[str], rank: int, modes) -> int:
    """Samples between ``rank`` and the nearest edge between two modes.

    ``modes`` lists sets of op classes from fastest to slowest. The
    class counts are exact, so this places the 1-based ascending rank
    inside a mode by counts alone; a margin of 0 means the rank sits on
    the edge, where a percentile jumps between modes from run to run.
    """
    edges, total = [], 0
    for mode in modes[:-1]:
        total += sum(1 for c in classes if c in mode)
        edges.append(total)
    return min((abs(rank - edge) for edge in edges), default=len(classes))


QUERY_MODES = ({HIT, MISS_ALL}, {MISS_REGION})
UPDATE_MODES = ({DELETE}, {INSERT}, {REPAIR}, {REFRESH})


def serve_pass(spec, stream: Stream, checker: Checker, timed: bool) -> Dict:
    """Build the program's set-up and replay one stream through it.

    A timed pass interleaves the reference with the ops and reports
    corrected times: ``ms`` per op and ``setup_ms``, the set-up scaled by
    the median reference of its pass.
    """
    start = time.perf_counter()
    frontend = build_frontend(spec, stream.data)
    setup_s = time.perf_counter() - start
    refs = [] if timed else None
    elapsed, classes = replay(
        spec, frontend, stream.data, stream.ops, stream.checked, checker, refs
    )
    out = {
        "frontend": frontend,
        "setup_s": setup_s,
        "elapsed": elapsed,
        "classes": classes,
        "counts": serve_counts(frontend),
    }
    if timed:
        out["refs"] = refs
        out["ms"] = corrected(elapsed, refs, spec.chunk)
        out["setup_ms"] = setup_s * 1e3 * host.REF_NOMINAL_MS / statistics.median(refs)
    return out


def run_serve(name: str, seed: int, seconds: float) -> Dict:
    spec = SERVE[name]
    checker = Checker()
    passes = max(3, round(seconds / spec.nominal_pass_s))
    streams = [serve_inputs(spec, seed, k) for k in range(1, passes + 1)]
    # The warm-up replays the first stream untimed; its exact counts
    # must come out the same when that stream is replayed timed.
    warm = serve_pass(spec, streams[0], checker, False)
    runs = []
    for stream in streams:
        run = serve_pass(spec, stream, checker, True)
        del run["frontend"]  # one index alive at a time, as in a server
        runs.append(run)
    checker.guard(
        runs[0]["counts"] == warm["counts"],
        f"exact counts changed between replays: {runs[0]['counts']} "
        f"!= {warm['counts']}",
    )

    def picked(run, kinds, key="ms"):
        values = run[key] if key == "ms" else [1e3 * e for e in run[key]]
        return [v for v, c in zip(values, run["classes"]) if c in kinds]

    def per_pass(fn, kinds, key="ms"):
        return statistics.median(fn(picked(run, kinds, key)) for run in runs)

    def rate(values):
        return 1e3 * len(values) / sum(values)

    def tail_value(values):
        return host.tail(values)["value"]

    queries, everything = set(QUERY_CLASSES), set(QUERY_CLASSES + UPDATE_CLASSES)
    query_margins = []
    for run in runs:
        classes = [c for c in run["classes"] if c in queries]
        n = len(classes)
        query_margins += [
            mode_margin(classes, (n + 1) // 2, QUERY_MODES),
            mode_margin(classes, n - host.TAIL_BEYOND, QUERY_MODES),
        ]
    update_ms, update_classes = [], []
    for run in runs:
        for v, c in zip(run["ms"], run["classes"]):
            if c in UPDATE_CLASSES:
                update_ms.append(v)
                update_classes.append(c)
    update_tail = host.tail(update_ms)
    return {
        "checker": checker,
        "metrics": {
            "setup_s": statistics.median(r["setup_ms"] for r in runs) / 1e3,
            "p50_ms": per_pass(statistics.median, queries),
            "tail_ms": per_pass(tail_value, queries),
            "ops_per_s": per_pass(rate, everything),
            "peak_rss_mb": peak_rss_mb(),
        },
        "diagnostics": {
            "passes": len(runs),
            "query_samples_per_pass": per_pass(len, queries),
            "tail_percentile": per_pass(
                lambda v: host.tail(v)["percentile"], queries
            ),
            "query_mode_margin_min": min(query_margins),
            "host.ref_ms": statistics.median(
                r for run in runs for r in run["refs"]
            ),
            "raw.setup_s": statistics.median(r["setup_s"] for r in runs),
            "raw.p50_ms": per_pass(statistics.median, queries, "elapsed"),
            "raw.tail_ms": per_pass(tail_value, queries, "elapsed"),
            "raw.ops_per_s": per_pass(rate, everything, "elapsed"),
            "update_p50_ms": statistics.median(update_ms),
            "update_tail_ms": update_tail["value"],
            "update_tail_percentile": update_tail["percentile"],
            "update_samples": len(update_ms),
            "update_tail_mode_margin": mode_margin(
                update_classes, len(update_ms) - host.TAIL_BEYOND, UPDATE_MODES
            ),
            "counts": runs[0]["counts"],
        },
    }


def run(name: str, seed: int, seconds: float) -> Dict:
    if name in BATCH:
        return run_batch(name, seed, seconds)
    return run_serve(name, seed, seconds)
