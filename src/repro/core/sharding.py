"""Model shard descriptions and the per-model sharding plan.

ElasticRec partitions a DLRM model into two shard types (Section IV-A):

* one **dense DNN shard** servicing the bottom MLP, feature interaction and
  top MLP;
* per embedding table, one or more **embedding shards**, each holding a
  contiguous range of hot-sorted rows, produced by the Algorithm-2
  partitioner.

A :class:`ShardingPlan` collects all shard specifications for one workload,
including each table's shard boundaries (what a
:class:`~repro.core.bucketization.Bucketizer` routes lookups by).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.analytics import ModelAnalytics
from repro.model.configs import DLRMConfig

__all__ = ["DenseShardSpec", "EmbeddingShardSpec", "ShardingPlan"]


@dataclass(frozen=True)
class DenseShardSpec:
    """The dense DNN shard of one workload."""

    model_name: str
    parameter_bytes: int
    flops_per_query: int

    def __post_init__(self) -> None:
        if self.parameter_bytes <= 0:
            raise ValueError("parameter_bytes must be positive")
        if self.flops_per_query <= 0:
            raise ValueError("flops_per_query must be positive")

    @property
    def name(self) -> str:
        """Deployment name of the dense shard."""
        return f"{self.model_name}-dense"

    @classmethod
    def from_config(cls, config: DLRMConfig) -> "DenseShardSpec":
        """Derive the dense shard description from a workload configuration."""
        analytics = ModelAnalytics(config)
        return cls(
            model_name=config.name,
            parameter_bytes=analytics.dense_parameter_bytes(),
            flops_per_query=analytics.dense_flops_per_query(),
        )


@dataclass(frozen=True)
class EmbeddingShardSpec:
    """One embedding shard: a contiguous hot-sorted row range of one table."""

    model_name: str
    table_id: int
    shard_index: int
    start_row: int
    end_row: int
    embedding_dim: int
    dtype_bytes: int
    expected_gathers_per_item: float
    coverage: float

    def __post_init__(self) -> None:
        if self.table_id < 0 or self.shard_index < 0:
            raise ValueError("table_id and shard_index must be non-negative")
        if not 0 <= self.start_row < self.end_row:
            raise ValueError("start_row/end_row must describe a non-empty range")
        if self.embedding_dim <= 0 or self.dtype_bytes <= 0:
            raise ValueError("embedding_dim and dtype_bytes must be positive")
        if self.expected_gathers_per_item < 0:
            raise ValueError("expected_gathers_per_item must be non-negative")
        if not 0.0 <= self.coverage <= 1.0 + 1e-9:
            raise ValueError("coverage must be in [0, 1]")

    @property
    def name(self) -> str:
        """Deployment name, e.g. ``RM1-table0-shard1``."""
        return f"{self.model_name}-table{self.table_id}-shard{self.shard_index}"

    @property
    def rows(self) -> int:
        """Rows held by this shard."""
        return self.end_row - self.start_row

    @property
    def capacity_bytes(self) -> int:
        """Bytes of embedding vectors stored by this shard."""
        return self.rows * self.embedding_dim * self.dtype_bytes


@dataclass(frozen=True)
class ShardingPlan:
    """All shards of one workload, as produced by the ElasticRec planner."""

    config: DLRMConfig
    dense_shard: DenseShardSpec
    embedding_shards: tuple[EmbeddingShardSpec, ...]
    table_boundaries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "embedding_shards", tuple(self.embedding_shards))
        object.__setattr__(
            self, "table_boundaries", tuple(tuple(b) for b in self.table_boundaries)
        )
        if len(self.table_boundaries) != self.config.embedding.num_tables:
            raise ValueError("one boundary list per embedding table is required")
        for table_id, boundaries in enumerate(self.table_boundaries):
            if boundaries[0] != 0 or boundaries[-1] != self.config.embedding.rows_per_table:
                raise ValueError(f"table {table_id} boundaries must cover the whole table")
            shards = self.shards_for_table(table_id)
            if len(shards) != len(boundaries) - 1:
                raise ValueError(
                    f"table {table_id} has {len(shards)} shards but "
                    f"{len(boundaries) - 1} boundary intervals"
                )

    @property
    def num_tables(self) -> int:
        """Number of embedding tables in the workload."""
        return self.config.embedding.num_tables

    @property
    def num_embedding_shards(self) -> int:
        """Total embedding shards across every table."""
        return len(self.embedding_shards)

    def shards_for_table(self, table_id: int) -> list[EmbeddingShardSpec]:
        """Embedding shards of one table, hottest first."""
        shards = [s for s in self.embedding_shards if s.table_id == table_id]
        return sorted(shards, key=lambda s: s.shard_index)

    def shards_per_table(self) -> dict[int, int]:
        """Shard count per table."""
        return {t: len(self.shards_for_table(t)) for t in range(self.num_tables)}

    def single_copy_embedding_bytes(self) -> int:
        """Bytes of one copy of every embedding shard (no replication)."""
        return sum(s.capacity_bytes for s in self.embedding_shards)

    def summary(self) -> dict[str, float]:
        """Headline structural numbers of the plan."""
        return {
            "num_tables": float(self.num_tables),
            "num_embedding_shards": float(self.num_embedding_shards),
            "dense_parameter_bytes": float(self.dense_shard.parameter_bytes),
            "single_copy_embedding_gb": self.single_copy_embedding_bytes() / 1e9,
        }
