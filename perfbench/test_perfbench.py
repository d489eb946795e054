"""Tests of the benchmark itself: tails, inputs, oracle and exact counts.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import random
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import host  # noqa: E402
import inputs  # noqa: E402
import run as entry  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: A serve stream small enough for a unit test, with several refreshes.
SMALL_SERVE = replace(
    workloads.SERVE["serve-mixed"], initial=300, num_ops=700, staleness_budget=32
)


@pytest.mark.parametrize("n", [21, 50, 117, 2000])
def test_tail_leaves_ten_samples_beyond_and_is_not_below_p50(n):
    rng = random.Random(n)
    samples = [rng.lognormvariate(0, 1) for _ in range(n)]
    tail = host.tail(samples)
    assert sum(1 for s in samples if s > tail["value"]) == host.TAIL_BEYOND
    ordered = sorted(samples)
    assert tail["value"] >= ordered[(n + 1) // 2 - 1]
    assert tail["samples"] == n
    # Nearest rank: the reported percentile names the tail sample itself.
    assert ordered[round(tail["percentile"] / 100 * n) - 1] == tail["value"]


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        host.tail([1.0] * 20)


def test_tail_sits_inside_one_serve_mode():
    """The class counts are exact, so where each rank falls is too."""
    checker = workloads.Checker()
    stream = workloads.serve_inputs(SMALL_SERVE, 7, 1)
    runs = [
        workloads.serve_pass(SMALL_SERVE, stream, checker, False) for _ in range(2)
    ]
    assert checker.correct, checker.problems
    assert runs[0]["classes"] == runs[1]["classes"]
    queries = [c for c in runs[0]["classes"] if c in workloads.QUERY_CLASSES]
    n = len(queries)
    for rank in ((n + 1) // 2, n - host.TAIL_BEYOND):
        assert workloads.mode_margin(queries, rank, workloads.QUERY_MODES) >= 10
    # The full-size stream, pooled over the passes of a 10-second run,
    # puts the update tail inside the refresh mode.
    spec = workloads.SERVE["serve-mixed"]
    passes = round(10 / spec.nominal_pass_s)
    pooled = []
    for k in range(1, passes + 1):
        stream = workloads.serve_inputs(spec, 7, k)
        run = workloads.serve_pass(spec, stream, checker, False)
        pooled += [c for c in run["classes"] if c in workloads.UPDATE_CLASSES]
    rank = len(pooled) - host.TAIL_BEYOND
    assert workloads.mode_margin(pooled, rank, workloads.UPDATE_MODES) >= 10
    assert pooled.count(workloads.REFRESH) > 2 * host.TAIL_BEYOND


def test_mode_margin_counts_samples_to_the_nearest_edge():
    classes = ["a"] * 30 + ["b"] * 70
    modes = ({"a"}, {"b"})
    assert workloads.mode_margin(classes, 30, modes) == 0
    assert workloads.mode_margin(classes, 90, modes) == 60
    assert workloads.mode_margin(["a"] * 5, 3, ({"a"},)) == 5


def test_oracle_matches_brute_force_with_duplicates():
    rng = np.random.default_rng(3)
    values = np.round(rng.random((300, 3)), 1)  # many ties and duplicates
    brute = [
        i
        for i in range(len(values))
        if not any(
            (values[j] <= values[i]).all() and (values[j] < values[i]).any()
            for j in range(len(values))
        )
    ]
    assert inputs.skyline_rows(values).tolist() == brute


@pytest.mark.parametrize("name", sorted(workloads.BATCH))
def test_batch_inputs_repeat_per_seed_and_change_with_it(name):
    spec = workloads.BATCH[name]
    a, sky_a = workloads.batch_inputs(spec, 5)
    b, sky_b = workloads.batch_inputs(spec, 5)
    c, _ = workloads.batch_inputs(spec, 6)
    assert np.array_equal(a, b) and np.array_equal(sky_a, sky_b)
    assert not np.array_equal(a, c)
    assert a.shape == (spec.cardinality, spec.dimensionality)
    assert ((a >= 0) & (a <= 1)).all()


def test_serve_inputs_repeat_per_seed_and_change_with_it():
    a = workloads.serve_inputs(SMALL_SERVE, 5, 1)
    b = workloads.serve_inputs(SMALL_SERVE, 5, 1)
    assert np.array_equal(a.data, b.data) and a.ops == b.ops
    assert a.checked == b.checked
    for other in (
        workloads.serve_inputs(SMALL_SERVE, 6, 1),
        workloads.serve_inputs(SMALL_SERVE, 5, 2),
    ):
        assert a.ops != other.ops


def _exact(metrics):
    return {name: metrics[name] for name in tracing.EXACT}


def test_exact_counts_repeat_for_a_seed_and_move_with_it(monkeypatch):
    monkeypatch.setitem(workloads.SERVE, "serve-mixed", SMALL_SERVE)
    for name in ("batch-indep", "serve-mixed"):
        first = tracing.run(name, 11, 1)
        again = tracing.run(name, 11, 1)
        other = tracing.run(name, 12, 1)
        assert first["checker"].correct, first["checker"].problems
        assert _exact(first["metrics"]) == _exact(again["metrics"])
        assert _exact(first["metrics"]) != _exact(other["metrics"])
        assert set(first["metrics"]) == set(tracing.PER_LAYER)


def test_a_wrong_answer_fails_the_run(monkeypatch, capsys):
    real = workloads.inputs.skyline_rows
    monkeypatch.setattr(
        workloads.inputs, "skyline_rows", lambda values: real(values)[1:]
    )
    monkeypatch.setitem(
        workloads.BATCH,
        "batch-indep",
        replace(workloads.BATCH["batch-indep"], cardinality=2000),
    )
    code = entry.main(
        ["--workload", "batch-indep", "--seed", "1", "--seconds", "1"]
    )
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert '"correct": false' in last


@pytest.mark.parametrize(
    "name, unit",
    [
        ("setup_s", "s"),
        ("p50_ms", "ms"),
        ("ops_per_s", "1/s"),
        ("peak_rss_mb", "MB"),
        ("mapreduce.run.ms", "ms"),
        ("mapreduce.map_task.ms_max", "ms"),
        ("dominance.dominated_mask.mpairs_per_s", "Mpairs/s"),
        ("serve.virtual_qps", "1/s"),
        ("serve.cache.hit_rate", "ratio"),
        ("pipeline.model_over_measured", "ratio"),
        ("mr.shuffle_bytes", "bytes"),
        ("trace.overhead_pct", "%"),
        ("skyline.tuple_compares", "count"),
    ],
)
def test_units(name, unit):
    assert entry.unit_of(name) == unit


def test_benchmark_json_lists_what_the_runs_print():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(entry.WORKLOAD_NAMES)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    for metric in bench["per_layer"] + bench["end_to_end"]:
        assert metric["unit"] == entry.unit_of(metric["name"])
    assert [m["name"] for m in bench["end_to_end"]] == list(workloads.END_TO_END)
    assert bench["command"] == ["python3", "perfbench/run.py"]
