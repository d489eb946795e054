"""Payload size estimation for shuffle/broadcast accounting.

The simulated cluster charges shuffle time as bytes/bandwidth, so the
runtime needs a cheap, deterministic estimate of how many bytes a value
would occupy on the wire. Exact serialisation (pickling every record)
would distort the timing measurements; this estimator is O(structure)
and within a small constant of pickled size for the types the library
actually shuffles (numbers, tuples, NumPy arrays, bitstring bytes,
PointSets).
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Any, List, Optional

import numpy as np

from repro.core.pointset import PointSet

#: Per-object framing overhead assumed by the estimator.
_OVERHEAD = 8


def payload_size(value: Any) -> int:
    """Approximate serialised size of ``value`` in bytes."""
    if value is None:
        return _OVERHEAD
    # The runtime's hottest shuffled payload: size a columnar block in
    # O(1) from its array nbytes, before any recursive inspection.
    if isinstance(value, PointSet):
        return int(value.ids.nbytes + value.values.nbytes) + _OVERHEAD
    if isinstance(value, (bool, int, float)):
        return _OVERHEAD
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value) + _OVERHEAD
    if isinstance(value, str):
        return len(value.encode("utf-8", "replace")) + _OVERHEAD
    if isinstance(value, np.ndarray):
        return int(value.nbytes) + _OVERHEAD
    if isinstance(value, np.generic):
        return int(value.nbytes) + _OVERHEAD
    if isinstance(value, (tuple, list, set, frozenset)):
        return sum(payload_size(v) for v in value) + _OVERHEAD
    if isinstance(value, dict):
        return (
            sum(payload_size(k) + payload_size(v) for k, v in value.items())
            + _OVERHEAD
        )
    # Library containers expose their own accounting when possible.
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes) + _OVERHEAD
    sizer = getattr(value, "payload_bytes", None)
    if callable(sizer):
        return int(sizer()) + _OVERHEAD
    ids = getattr(value, "ids", None)
    values = getattr(value, "values", None)
    if isinstance(ids, np.ndarray) and isinstance(values, np.ndarray):
        return int(ids.nbytes + values.nbytes) + _OVERHEAD
    structural = _structural_size(value)
    if structural is not None:
        return structural
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError, RecursionError):
        # The concrete ways pickling an arbitrary object fails. A bare
        # Exception here would also swallow ValidationError raised by a
        # payload's own __reduce__, hiding real configuration bugs.
        return 64  # opaque object; charge a flat token


def payload_units(value: Any, ids: List[np.ndarray]) -> int:
    """Logical record (tuple) count of a shuffled value.

    The unit of the shuffle's replication accounting: a columnar
    :class:`PointSet` carries one record per point, containers carry
    the sum of their members, and any scalar payload counts as one
    record. Deterministic and O(structure), like :func:`payload_size`.

    The same walk appends the id array of every :class:`PointSet`
    inside ``value`` to ``ids`` — the source half of the accounting:
    the caller deduplicates the ids of everything one map task sends,
    and every id-less record counts as its own source.
    """
    if isinstance(value, PointSet):
        ids.append(value.ids)
        return len(value.ids)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (tuple, list, set, frozenset)):
        return 1
    return sum([payload_units(v, ids) for v in value])


def _structural_size(value: Any) -> Optional[int]:
    """Size dataclass/slotted library objects by walking their fields.

    Grids, bitstrings, reducer groups, block descriptors and the other
    structured values the runtime broadcasts all end up here, so the
    shuffle/broadcast accounting never round-trips them through
    ``pickle.dumps`` (the former cold-path cost). Plain ``__dict__``
    objects keep the pickle fallback: their layout is not ours to
    assume.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            sum(
                payload_size(getattr(value, f.name))
                for f in dataclasses.fields(value)
            )
            + _OVERHEAD
        )
    slots: list = []
    for klass in type(value).__mro__:
        declared = klass.__dict__.get("__slots__")
        if declared is None:
            continue
        slots.extend((declared,) if isinstance(declared, str) else declared)
    if not slots:
        return None
    total = _OVERHEAD
    for name in slots:
        try:
            total += payload_size(getattr(value, name))
        except AttributeError:
            continue  # slot declared but never assigned
    return total
