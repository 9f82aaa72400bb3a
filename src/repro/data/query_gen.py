"""Query generation for RecSys inference serving.

A query ranks a batch of items for one user; following the paper's
methodology (Section V-C, after DeepRecSys) the batch size defaults to 32.
Each query carries a dense input and, per embedding table, an index array and
an offset array in the ``EmbeddingBag`` convention used by DLRM and by the
paper's bucketization example (Figure 11): ``offsets[i]`` is the position in
``indices`` where the i-th batch element's lookups begin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.data.distributions import AccessDistribution

__all__ = ["SparseLookup", "Query", "TableWorkload", "QueryGenerator"]

DEFAULT_BATCH_SIZE = 32


@dataclass(frozen=True)
class SparseLookup:
    """Index/offset arrays addressing a single embedding table for one query."""

    table_id: int
    indices: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "offsets", offsets)
        if offsets.ndim != 1 or indices.ndim != 1:
            raise ValueError("indices and offsets must be one-dimensional")
        if offsets.size == 0:
            raise ValueError("offsets must be non-empty")
        if offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if offsets[-1] > indices.size:
            raise ValueError("offsets reference past the end of the index array")

    @property
    def batch_size(self) -> int:
        """Number of batch elements this lookup serves."""
        return int(self.offsets.size)

    @property
    def num_lookups(self) -> int:
        """Total number of embedding vectors gathered from this table."""
        return int(self.indices.size)


@dataclass(frozen=True)
class Query:
    """A single inference query: dense input plus one sparse lookup per table."""

    query_id: int
    dense_input: np.ndarray
    sparse_lookups: tuple[SparseLookup, ...]
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        dense = np.asarray(self.dense_input, dtype=np.float64)
        object.__setattr__(self, "dense_input", dense)
        object.__setattr__(self, "sparse_lookups", tuple(self.sparse_lookups))
        if dense.ndim != 2:
            raise ValueError("dense_input must have shape (batch, num_dense_features)")
        for lookup in self.sparse_lookups:
            if lookup.batch_size != self.batch_size:
                raise ValueError(
                    "all sparse lookups must share the query batch size "
                    f"({lookup.batch_size} != {self.batch_size})"
                )

    @property
    def batch_size(self) -> int:
        """Number of items ranked by this query."""
        return int(self.dense_input.shape[0])

    @property
    def num_tables(self) -> int:
        """Number of embedding tables the query touches."""
        return len(self.sparse_lookups)


@dataclass(frozen=True)
class TableWorkload:
    """How one embedding table is accessed: skew plus pooling factor."""

    table_id: int
    distribution: AccessDistribution
    pooling: int

    def __post_init__(self) -> None:
        if self.pooling <= 0:
            raise ValueError(f"pooling must be positive, got {self.pooling}")

    @property
    def num_items(self) -> int:
        """Rows in the table this workload addresses."""
        return self.distribution.num_items


class QueryGenerator:
    """Generates synthetic inference queries for a set of embedding tables.

    Parameters
    ----------
    tables:
        One :class:`TableWorkload` per embedding table.
    batch_size:
        Items per query (paper default: 32).
    num_dense_features:
        Width of the continuous-feature input consumed by the bottom MLP.
    seed:
        Seed for the internal random generator; generation is deterministic
        for a given seed.
    """

    def __init__(
        self,
        tables: Sequence[TableWorkload],
        batch_size: int = DEFAULT_BATCH_SIZE,
        num_dense_features: int = 13,
        seed: int = 0,
    ) -> None:
        if not tables:
            raise ValueError("at least one table workload is required")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if num_dense_features <= 0:
            raise ValueError(f"num_dense_features must be positive, got {num_dense_features}")
        self._tables = tuple(tables)
        self._batch_size = int(batch_size)
        self._num_dense_features = int(num_dense_features)
        self._rng = np.random.default_rng(seed)
        self._next_query_id = 0

    @property
    def tables(self) -> tuple[TableWorkload, ...]:
        """Per-table workloads this generator draws from."""
        return self._tables

    @property
    def batch_size(self) -> int:
        """Items per generated query."""
        return self._batch_size

    @property
    def num_dense_features(self) -> int:
        """Width of generated dense inputs."""
        return self._num_dense_features

    def generate(self, arrival_time: float = 0.0) -> Query:
        """Generate one query."""
        dense = self._rng.random((self._batch_size, self._num_dense_features))
        lookups = []
        for table in self._tables:
            total = self._batch_size * table.pooling
            indices = table.distribution.sample(total, self._rng)
            offsets = np.arange(self._batch_size, dtype=np.int64) * table.pooling
            lookups.append(
                SparseLookup(table_id=table.table_id, indices=indices, offsets=offsets)
            )
        query = Query(
            query_id=self._next_query_id,
            dense_input=dense,
            sparse_lookups=tuple(lookups),
            arrival_time=arrival_time,
        )
        self._next_query_id += 1
        return query

    def stream(self) -> Iterator[Query]:
        """Infinite stream of queries (arrival times left at zero)."""
        while True:
            yield self.generate()
