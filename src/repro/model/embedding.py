"""Embedding tables and embedding-bag (gather + pool) operators.

Two levels of fidelity are provided:

* :class:`EmbeddingTableSpec` — metadata only (rows, dimension, bytes).  All
  planning, partitioning and memory-accounting code operates on specs so that
  paper-scale tables (20M rows, several GB) are never materialised.
* :class:`EmbeddingTable` / :class:`EmbeddingBag` — real numpy weights with
  gather and sum/mean pooling, used by the functional DLRM in examples and
  tests at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EmbeddingTableSpec", "EmbeddingTable", "EmbeddingBag"]

_SUPPORTED_POOLING = ("sum", "mean")


@dataclass(frozen=True)
class EmbeddingTableSpec:
    """Metadata describing one embedding table."""

    table_id: int
    rows: int
    dim: int
    dtype_bytes: int = 4

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ValueError(f"rows must be positive, got {self.rows}")
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.dtype_bytes <= 0:
            raise ValueError(f"dtype_bytes must be positive, got {self.dtype_bytes}")

    @property
    def row_bytes(self) -> int:
        """Bytes occupied by a single embedding vector."""
        return self.dim * self.dtype_bytes

    @property
    def size_bytes(self) -> int:
        """Total table size in bytes."""
        return self.rows * self.row_bytes

    def slice_bytes(self, start_row: int, end_row: int) -> int:
        """Bytes of the row range ``[start_row, end_row)`` (a shard's capacity)."""
        if not 0 <= start_row <= end_row <= self.rows:
            raise ValueError(
                f"invalid row range [{start_row}, {end_row}) for table with {self.rows} rows"
            )
        return (end_row - start_row) * self.row_bytes


class EmbeddingTable:
    """A materialised embedding table (small scale, for functional execution)."""

    def __init__(
        self,
        spec: EmbeddingTableSpec,
        rng: np.random.Generator | None = None,
        weights: np.ndarray | None = None,
    ) -> None:
        self._spec = spec
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (spec.rows, spec.dim):
                raise ValueError(
                    f"weights shape {weights.shape} does not match spec "
                    f"({spec.rows}, {spec.dim})"
                )
            self._weights = weights
        else:
            rng = rng if rng is not None else np.random.default_rng(spec.table_id)
            self._weights = rng.normal(0.0, 1.0 / np.sqrt(spec.dim), size=(spec.rows, spec.dim))

    @property
    def spec(self) -> EmbeddingTableSpec:
        """Metadata for this table."""
        return self._spec

    @property
    def weights(self) -> np.ndarray:
        """The underlying ``(rows, dim)`` weight matrix."""
        return self._weights

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Gather embedding vectors for the given row ids."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self._spec.rows):
            raise IndexError("embedding indices out of range")
        return self._weights[indices]

    def slice(self, start_row: int, end_row: int, shard_table_id: int | None = None) -> "EmbeddingTable":
        """A new table holding only rows ``[start_row, end_row)`` (a shard)."""
        if not 0 <= start_row <= end_row <= self._spec.rows:
            raise ValueError(
                f"invalid row range [{start_row}, {end_row}) for table with {self._spec.rows} rows"
            )
        rows = end_row - start_row
        if rows == 0:
            raise ValueError("a shard must contain at least one row")
        spec = EmbeddingTableSpec(
            table_id=self._spec.table_id if shard_table_id is None else shard_table_id,
            rows=rows,
            dim=self._spec.dim,
            dtype_bytes=self._spec.dtype_bytes,
        )
        return EmbeddingTable(spec, weights=self._weights[start_row:end_row].copy())

    def permuted(self, permutation: np.ndarray) -> "EmbeddingTable":
        """A new table with rows reordered (used by hotness sorting)."""
        permutation = np.asarray(permutation, dtype=np.int64)
        if permutation.shape != (self._spec.rows,):
            raise ValueError("permutation must cover every row exactly once")
        if not np.array_equal(np.sort(permutation), np.arange(self._spec.rows)):
            raise ValueError("permutation must be a valid reordering of row ids")
        return EmbeddingTable(self._spec, weights=self._weights[permutation].copy())


class EmbeddingBag:
    """Gather-and-pool operator over one embedding table.

    Mirrors ``torch.nn.EmbeddingBag``: ``indices`` is a flat id array and
    ``offsets[i]`` marks where batch element ``i`` begins.
    """

    def __init__(self, table: EmbeddingTable, pooling_mode: str = "sum") -> None:
        if pooling_mode not in _SUPPORTED_POOLING:
            raise ValueError(
                f"pooling_mode must be one of {_SUPPORTED_POOLING}, got {pooling_mode!r}"
            )
        self._table = table
        self._pooling_mode = pooling_mode

    @property
    def table(self) -> EmbeddingTable:
        """The wrapped embedding table."""
        return self._table

    @property
    def pooling_mode(self) -> str:
        """Reduction applied across each batch element's gathered vectors."""
        return self._pooling_mode

    def forward(self, indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Pool the gathered vectors per batch element into a ``(batch, dim)`` array."""
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size == 0:
            raise ValueError("offsets must be a non-empty 1-D array")
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0) or offsets[-1] > indices.size:
            raise ValueError("offsets must be non-decreasing, start at 0 and stay in range")
        batch = offsets.size
        dim = self._table.spec.dim
        output = np.zeros((batch, dim))
        bounds = np.append(offsets, indices.size)
        gathered = self._table.lookup(indices) if indices.size else np.empty((0, dim))
        for sample in range(batch):
            start, stop = int(bounds[sample]), int(bounds[sample + 1])
            if start == stop:
                continue
            pooled = gathered[start:stop].sum(axis=0)
            if self._pooling_mode == "mean":
                pooled /= stop - start
            output[sample] = pooled
        return output

    __call__ = forward
