"""A bundle of points with stable row identities.

Every MapReduce flow in this library carries *which* input rows are
skyline members, not just their coordinate values, so the final result
can be reported as indices into the caller's dataset (robust to
duplicate points). :class:`PointSet` packages the id vector and the
value matrix together and provides the dominance-filtering operations
the paper's algorithms are written in terms of.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core import dominance
from repro.core.sfs import sfs_skyline_indices
from repro.errors import DataError


class PointSet:
    """Immutable-ish (ids, values) pair; all operations return copies."""

    __slots__ = ("ids", "values")

    def __init__(self, ids: np.ndarray, values: np.ndarray):
        ids = np.asarray(ids, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"values must be 2-D, got shape {values.shape}")
        if ids.shape[0] != values.shape[0]:
            raise DataError(
                f"ids/values length mismatch: {ids.shape[0]} vs {values.shape[0]}"
            )
        self.ids = ids
        self.values = values

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls, dimensionality: int) -> "PointSet":
        return cls(np.empty(0, dtype=np.int64), np.empty((0, dimensionality)))

    @classmethod
    def from_array(cls, values: np.ndarray, start_id: int = 0) -> "PointSet":
        """Wrap an array, assigning sequential ids from ``start_id``."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"values must be 2-D, got shape {values.shape}")
        return cls(np.arange(start_id, start_id + values.shape[0]), values)

    @classmethod
    def concat(cls, parts) -> "PointSet":
        parts = [p for p in parts if p is not None]
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            raise DataError("concat needs at least one non-empty PointSet")
        return cls(
            np.concatenate([p.ids for p in parts]),
            np.vstack([p.values for p in parts]),
        )

    # -- basics --------------------------------------------------------

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def dimensionality(self) -> int:
        return int(self.values.shape[1])

    def __iter__(self) -> Iterator[Tuple[int, np.ndarray]]:
        for i in range(len(self)):
            yield int(self.ids[i]), self.values[i]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointSet(n={len(self)}, d={self.dimensionality})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return bool(
            np.array_equal(self.ids, other.ids)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):  # PointSets are containers, not dict keys
        raise TypeError("PointSet is unhashable")

    def copy(self) -> "PointSet":
        return PointSet(self.ids.copy(), self.values.copy())

    def select(self, mask_or_index: np.ndarray) -> "PointSet":
        """Row subset by boolean mask or integer index array."""
        return PointSet(self.ids[mask_or_index], self.values[mask_or_index])

    def sort_by(self, key: np.ndarray) -> "PointSet":
        """Stable sort rows ascending by ``key``."""
        order = np.argsort(np.asarray(key), kind="stable")
        return self.select(order)

    def split_by(self, keys: np.ndarray):
        """Partition rows into per-key blocks.

        Returns ``[(key, PointSet), ...]`` with keys ascending and the
        original row order preserved within each block — one stable
        argsort over the whole set instead of a boolean scan per
        distinct key. This is the partition-aware block split the
        grid mappers and the block shuffle are built on.
        """
        keys = np.asarray(keys).ravel()
        if keys.shape[0] != len(self):
            raise DataError(
                f"keys/rows length mismatch: {keys.shape[0]} vs {len(self)}"
            )
        if keys.shape[0] == 0:
            return []
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        ids = self.ids[order]
        values = self.values[order]
        uniq, starts = np.unique(sorted_keys, return_index=True)
        bounds = np.append(starts, keys.shape[0])
        return [
            (
                uniq[i].item(),
                PointSet(ids[bounds[i]:bounds[i + 1]], values[bounds[i]:bounds[i + 1]]),
            )
            for i in range(uniq.shape[0])
        ]

    def id_set(self) -> set:
        return set(self.ids.tolist())

    # -- dominance operations -----------------------------------------

    def remove_dominated_by(
        self,
        other: "PointSet",
        counter: Optional[dominance.DominanceCounter] = None,
    ) -> "PointSet":
        """Drop rows of self dominated by any row of ``other``.

        This is the critical operation of the paper's Algorithm 5, line 3
        (``ComparePartitions``): "remove from Sp all those tuples that
        are dominated by tuples in Spi".
        """
        if len(self) == 0 or len(other) == 0:
            return self
        if counter is not None:
            counter.charge(len(other), len(self))
        mask = dominance.dominated_mask(self.values, other.values)
        if not mask.any():
            return self
        return self.select(~mask)

    def local_skyline(
        self, counter: Optional[dominance.DominanceCounter] = None
    ) -> "PointSet":
        """Skyline of this set alone (sort-filter, vectorised).

        Presorts by the monotone sum key and filters with a growing
        window, block-batched (:func:`repro.core.sfs.sfs_skyline_indices`,
        the vectorised equivalent of the paper's Algorithm 4
        ``InsertTuple`` loop). Rows come back in key order; duplicate
        skyline points (which, per Definition 1, never dominate each
        other) are all kept.
        """
        if len(self) <= 1:
            return self
        return self.select(sfs_skyline_indices(self.values, counter))

    @classmethod
    def merge_skylines(
        cls,
        parts,
        counter: Optional[dominance.DominanceCounter] = None,
    ) -> "PointSet":
        """Skyline of the union of ``parts``, each already dominance-free
        internally.

        Equivalent to folding the parts pairwise, each step keeping the
        rows of the running merge and of the next part that the other
        side does not dominate: the same rows, in union order, and
        ``counter`` charged exactly what the fold's two cross-filter
        calls per step were. One first-dominator kernel call of the
        union against itself replaces the fold. A row of part ``c``
        whose first dominator lies in part ``j`` (``j`` = the number of
        parts where none does) is in the running merge from step ``c``
        to step ``max(c, j) - 1``, which gives every running size. Empty parts are skipped; with at most one
        non-empty part that part (or the last one) comes back as is.
        """
        parts = list(parts)
        full = [p for p in parts if len(p)]
        if len(full) <= 1:
            return full[0] if full else parts[-1]
        union = cls.concat(full)
        first = dominance.dominated_mask(union.values, union.values, first=True)
        if counter is not None:
            sizes = np.array([len(p) for p in full])
            part = np.repeat(np.arange(len(full)), sizes)
            owner = np.append(part, len(full))[first]
            leave = np.maximum(owner, part)
            bins = len(full) + 1
            running = np.cumsum(
                np.bincount(part, minlength=bins) - np.bincount(leave, minlength=bins)
            )
            for merged, size in zip(running, sizes[1:]):
                counter.charge(size, merged)
                counter.charge(merged, size)
        return union.select(first == len(union))
