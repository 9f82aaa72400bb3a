"""Bucketization: remapping lookup indices onto partitioned embedding shards.

Section IV-C, Figure 11: once a table is split into shards of consecutive
(sorted) index ranges, the original index/offset arrays of a query can no
longer be used directly.  The bucketizer walks the original arrays, routes
every index to the shard whose range contains it, rebases the index to the
shard's local coordinate system (subtracting the shard's first row) and
rebuilds a per-shard offset array so each shard can run a standard
embedding-bag lookup independently.

Because the pooling reduction is an element-wise sum, the per-shard pooled
outputs simply add up to the monolithic result; :func:`merge_pooled` performs
that reduction and the test suite verifies the round trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["BucketizedLookup", "Bucketizer", "merge_pooled"]


@dataclass(frozen=True)
class BucketizedLookup:
    """The index/offset arrays routed to one embedding shard."""

    shard_index: int
    indices: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.int64))

    @property
    def num_lookups(self) -> int:
        """Vectors gathered from this shard for the query."""
        return int(self.indices.size)

    @property
    def batch_size(self) -> int:
        """Batch elements covered (always the full query batch)."""
        return int(self.offsets.size)


class Bucketizer:
    """Routes lookup indices of one table onto its partitioned shards.

    Parameters
    ----------
    boundaries:
        The partitioning plan's boundary list ``[0, b1, ..., num_rows]``
        expressed over *sorted* row ranks (hottest first), as produced by
        :class:`~repro.core.partitioning.PartitioningResult`.
    rank_of_row:
        Optional mapping from original row id to sorted rank.  Supply it when
        queries address the original (unsorted) table; omit it when indices
        are already sorted ranks (synthetic workloads).
    """

    def __init__(
        self,
        boundaries: Sequence[int],
        rank_of_row: np.ndarray | None = None,
    ) -> None:
        bounds = np.asarray(list(boundaries), dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ValueError("boundaries must contain at least [0, num_rows]")
        if bounds[0] != 0 or np.any(np.diff(bounds) <= 0):
            raise ValueError("boundaries must start at 0 and increase strictly")
        self._boundaries = bounds
        self._num_rows = int(bounds[-1])
        if rank_of_row is not None:
            rank_of_row = np.asarray(rank_of_row, dtype=np.int64)
            if rank_of_row.shape != (self._num_rows,):
                raise ValueError("rank_of_row must map every original row id to a rank")
            if not np.array_equal(np.sort(rank_of_row), np.arange(self._num_rows)):
                raise ValueError("rank_of_row must be a permutation of the row ids")
        self._rank_of_row = rank_of_row

    @classmethod
    def from_permutation(
        cls, boundaries: Sequence[int], permutation: np.ndarray
    ) -> "Bucketizer":
        """Build from a sorted-rank -> original-row permutation (preprocessing output)."""
        permutation = np.asarray(permutation, dtype=np.int64)
        rank_of_row = np.empty_like(permutation)
        rank_of_row[permutation] = np.arange(permutation.size)
        return cls(boundaries, rank_of_row=rank_of_row)

    @property
    def num_shards(self) -> int:
        """Number of shards indices are routed to."""
        return int(self._boundaries.size - 1)

    @property
    def num_rows(self) -> int:
        """Rows of the original table."""
        return self._num_rows

    @property
    def boundaries(self) -> np.ndarray:
        """Boundary positions over sorted ranks."""
        return self._boundaries.copy()

    def shard_of(self, indices: np.ndarray) -> np.ndarray:
        """Shard index that will serve each lookup."""
        ranks = self._to_ranks(indices)
        return np.searchsorted(self._boundaries[1:], ranks, side="right")

    def _to_ranks(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self._num_rows):
            raise IndexError("lookup indices out of table range")
        if self._rank_of_row is None:
            return indices
        return self._rank_of_row[indices]

    def bucketize(
        self, indices: np.ndarray, offsets: np.ndarray
    ) -> list[BucketizedLookup]:
        """Split one query's index/offset arrays into per-shard arrays (Figure 11)."""
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size == 0:
            raise ValueError("offsets must be a non-empty 1-D array")
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0) or offsets[-1] > indices.size:
            raise ValueError("offsets must be non-decreasing, start at 0 and stay in range")
        batch = offsets.size
        ranks = self._to_ranks(indices)
        shard_ids = np.searchsorted(self._boundaries[1:], ranks, side="right")
        lengths = np.diff(np.append(offsets, indices.size))
        sample_ids = np.repeat(np.arange(batch, dtype=np.int64), lengths)

        lookups = []
        for shard in range(self.num_shards):
            mask = shard_ids == shard
            local_indices = ranks[mask] - self._boundaries[shard]
            counts = np.bincount(sample_ids[mask], minlength=batch)
            shard_offsets = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
            lookups.append(
                BucketizedLookup(
                    shard_index=shard, indices=local_indices, offsets=shard_offsets
                )
            )
        return lookups


def merge_pooled(pooled_per_shard: Sequence[np.ndarray]) -> np.ndarray:
    """Combine per-shard pooled embeddings into the monolithic pooled result.

    Sum pooling distributes over the shard partition, so the merge is an
    element-wise sum of the per-shard ``(batch, dim)`` outputs.
    """
    if not pooled_per_shard:
        raise ValueError("at least one per-shard pooled output is required")
    arrays = [np.asarray(p, dtype=np.float64) for p in pooled_per_shard]
    shape = arrays[0].shape
    for array in arrays[1:]:
        if array.shape != shape:
            raise ValueError("all per-shard pooled outputs must share the same shape")
    return np.sum(arrays, axis=0)
