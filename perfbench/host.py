"""Host-speed reference and the order statistics every metric uses.

The shared two-core hosts this benchmark runs on change speed by tens of
percent over minutes, and CPU time moves with wall time, so neither
helps. What does help is a fixed reference loop run interleaved with
the samples: a timed sample is scaled by ``REF_NOMINAL_MS / ref_ms``,
where ``ref_ms`` is the reference time measured beside it, which gives
the time the sample would have taken on a host where the reference
takes ``REF_NOMINAL_MS``. The loop imports nothing from ``repro``, so no
change to the program can move it. Like the program it mixes small
numpy calls with interpreter work (loops, dicts, tuples).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

#: Reference time of the nominal host that corrected figures are
#: expressed on.
REF_NOMINAL_MS = 25.0

#: A tail percentile leaves at least this many samples beyond it.
TAIL_BEYOND = 10

_REF_ROWS = np.random.default_rng(20140324).random((96, 3))
_REF_ROUNDS = 2000


def _reference_work() -> int:
    rows = _REF_ROWS
    acc = 0
    seen: Dict[tuple, int] = {}
    for i in range(_REF_ROUNDS):
        row = rows[i % len(rows)]
        beaten = (row <= rows).all(axis=1) & (row < rows).any(axis=1)
        acc += int(np.count_nonzero(beaten))
        key = (i % 17, i % 5)
        seen[key] = seen.get(key, 0) + acc % 7
        acc += sum(j * j for j in range(24)) % 11
    return acc + len(seen)


def reference_ms() -> float:
    """Wall time of one run of the reference loop, in ms."""
    start = time.perf_counter()
    _reference_work()
    return (time.perf_counter() - start) * 1e3


def smoothed(refs: Sequence[float], width: int = 5) -> List[float]:
    """Running median of ``refs`` over ``width`` neighbours.

    A single reference sample carries its own scheduling noise; the
    median of its neighbours still follows host drift over seconds.
    """
    half = width // 2
    out = []
    for i in range(len(refs)):
        lo, hi = max(0, i - half), min(len(refs), i + half + 1)
        out.append(float(np.median(refs[lo:hi])))
    return out


def tail(samples: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns the value, the percentile it sits at and the sample count.
    With nearest rank, the sample at rank ``n - TAIL_BEYOND`` has exactly
    ``TAIL_BEYOND`` samples above it; it is never below the median of
    the same samples.
    """
    n = len(samples)
    if n <= 2 * TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {2 * TAIL_BEYOND} samples")
    rank = n - TAIL_BEYOND
    return {
        "value": sorted(samples)[rank - 1],
        "percentile": 100.0 * rank / n,
        "samples": n,
    }
