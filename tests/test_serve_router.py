"""One router, two shard transports.

:class:`SkylineFleet` is :class:`ShardedSkylineIndex` with worker
processes behind its shard hook, so the same op stream must give the
same ids, answers, pair accounting, counters and events through either
transport — including the edge paths (auto ids, empty batches, the
uncovered-insert reshard alone and mid-batch). Observing the router
with an event bus must not change what it counts.
"""

import numpy as np
import pytest

from repro.mapreduce.counters import (
    SERVE_SHARD_QUERIES_FANNED,
    TUPLE_COMPARES,
)
from repro.obs.events import EventBus, EventLog
from repro.serve.fleet import SkylineFleet
from repro.serve.shard import ShardedSkylineIndex


def _data(n, d=3, seed=0):
    return np.random.default_rng(seed).random((n, d))


def _observed(make):
    bus = EventBus()
    log = bus.subscribe(EventLog())
    return make(bus=bus), log


def _state(index, returned):
    sky = index.skyline()
    snap = index.snapshot()
    return {
        "returned": returned,
        "sky_ids": sky.ids.tolist(),
        "sky_values": sky.values.tolist(),
        "snap_ids": snap.ids.tolist(),
        "snap_values": snap.values.tolist(),
        "last_shard_pairs": dict(index.last_shard_pairs),
        "counters": index.counters.as_dict(),
        "shard_pairs": [s.counters.get(TUPLE_COMPARES) for s in index.shards],
        "epoch": index.epoch,
        "refreshes": index.refreshes,
    }


def _stream(rng, first_skyline_id):
    """(label, op) pairs; each op takes the index and returns a value."""
    p = rng.random((6, 3))
    return [
        ("explicit insert", lambda ix: ix.insert(p[0], 1000)),
        ("auto insert", lambda ix: ix.insert(p[1])),
        (
            "batch: auto id, same-batch delete, member delete",
            lambda ix: ix.apply_delta_batch(
                [
                    ("insert", p[2], 1002),
                    ("insert", p[3], None),
                    ("delete", 1002),
                    ("delete", first_skyline_id),
                ]
            ),
        ),
        ("empty batch", lambda ix: ix.apply_delta_batch([])),
        ("delete", lambda ix: ix.delete(1000)),
        ("delete", lambda ix: ix.delete(1001)),
        ("delete", lambda ix: ix.delete(1003)),
        (
            "uncovered insert alone",
            lambda ix: ix.insert(np.array([2.5, 2.5, 0.5]), 60),
        ),
        ("auto insert after reshard", lambda ix: ix.insert(p[4])),
        (
            "uncovered insert mid-batch",
            lambda ix: ix.apply_delta_batch(
                [
                    ("insert", p[5], 2000),
                    ("insert", np.full(3, 9.0), 2001),
                    ("delete", 2000),
                ]
            ),
        ),
    ]


@pytest.mark.parametrize("start_method", ["fork"])
def test_fleet_and_in_process_router_agree(start_method):
    data = _data(50)
    first = int(ShardedSkylineIndex(data, num_shards=3).skyline().ids[0])
    router, router_log = _observed(
        lambda **kw: ShardedSkylineIndex(data.copy(), num_shards=3, **kw)
    )
    fleet, fleet_log = _observed(
        lambda **kw: SkylineFleet(
            data.copy(),
            num_shards=3,
            reshard=True,
            start_method=start_method,
            **kw,
        )
    )
    with fleet:
        assert _state(fleet, None) == _state(router, None)
        ops = zip(
            _stream(np.random.default_rng(1), first),
            _stream(np.random.default_rng(1), first),
        )
        for (label, on_router), (_label, on_fleet) in ops:
            expected = _state(router, on_router(router))
            assert _state(fleet, on_fleet(fleet)) == expected, label
    # Both uncovered inserts resharded (the stream reached both paths).
    assert len(router_log.of_kind("serve_reshard")) == 2
    for kind in ("serve_reshard", "serve_delta_batch"):
        expected = [e.as_dict() for e in router_log.of_kind(kind)]
        assert [e.as_dict() for e in fleet_log.of_kind(kind)] == expected
    assert all(
        e.skyline_size is None for e in router_log.of_kind("serve_delta_batch")
    )


def test_event_bus_does_not_change_router_counters():
    data = _data(200)
    rng = np.random.default_rng(4)
    batches = [
        [("insert", rng.random(3), 1000 + k), ("delete", k)]
        for k in range(5)
    ]

    def run(bus):
        index = ShardedSkylineIndex(data, num_shards=3, bus=bus)
        for ops in batches:
            index.apply_delta_batch(ops)
        index.skyline()
        return index

    plain = run(None)
    bus = EventBus()
    log = bus.subscribe(EventLog())
    observed = run(bus)
    assert len(log.of_kind("serve_delta_batch")) == len(batches)
    assert observed.counters.as_dict() == plain.counters.as_dict()
    assert observed.shard_counters() == plain.shard_counters()
    assert (
        observed.counters.get(SERVE_SHARD_QUERIES_FANNED)
        == observed.num_shards
    )
