"""Shared fixtures for the repro test-suite."""

from __future__ import annotations

import faulthandler
import signal
import sys
import threading

import numpy as np
import pytest

from repro.core.reference import bruteforce_skyline_indices
from repro.data.generators import generate
from repro.mapreduce.cluster import SimulatedCluster
from repro.mapreduce.engine import SerialEngine


#: Seconds a ``start_method="fork"`` test may run before it fails.
FORK_WATCHDOG_S = 60


def _fork_watchdog_fired(signum, frame):
    # Cleanup that hangs too ends the run, stacks dumped, after one more
    # period; the fixture's teardown cancels this when cleanup finishes.
    faulthandler.dump_traceback_later(
        FORK_WATCHDOG_S, exit=True, file=sys.__stderr__
    )
    pytest.fail(
        f"fork-start test still running after {FORK_WATCHDOG_S}s "
        "(a fork-with-threads deadlock?); thread stacks dumped to stderr",
        pytrace=False,
    )


@pytest.fixture(autouse=True)
def fork_watchdog(request):
    """Turn a hung fork-start test into a failure with stacks dumped.

    Forking while threads hold locks can deadlock the child and hang
    the test forever. Tests parametrized with ``start_method="fork"``
    get a faulthandler dump of every thread's stack just before the
    limit and a SIGALRM failure at it. POSIX main thread only.
    """
    callspec = getattr(request.node, "callspec", None)
    if (
        callspec is None
        or callspec.params.get("start_method") != "fork"
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
        or sys.__stderr__ is None
    ):
        yield
        return
    faulthandler.dump_traceback_later(FORK_WATCHDOG_S - 1, file=sys.__stderr__)
    previous = signal.signal(signal.SIGALRM, _fork_watchdog_fired)
    signal.alarm(FORK_WATCHDOG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def mini_cluster():
    """A small cluster so tests schedule multiple waves."""
    return SimulatedCluster(
        num_nodes=3, reduce_slots_per_node=2, task_overhead_s=0.0
    )


@pytest.fixture
def engine():
    return SerialEngine()


@pytest.fixture(params=["independent", "correlated", "anticorrelated", "clustered"])
def distribution(request):
    return request.param


def oracle_ids(data) -> set:
    """Brute-force skyline indices as a set (the correctness oracle)."""
    return set(bruteforce_skyline_indices(np.asarray(data, dtype=np.float64)).tolist())


def small_dataset(distribution: str, n: int = 200, d: int = 3, seed: int = 0):
    return generate(distribution, n, d, seed=seed)


# Re-exported helpers for test modules.
@pytest.fixture
def oracle():
    return oracle_ids
