"""Analytic FLOP / parameter / memory-traffic counters (Figure 3).

Figure 3(a) of the paper breaks a query's work into the dense DNN layers and
the sparse embedding layers along two axes: FLOPs and memory consumption
(model parameter footprint).  Those quantities are architecture-independent,
so they are computed analytically from the workload configuration rather than
measured, exactly as the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.configs import DLRMConfig

__all__ = ["LayerBreakdown", "ModelAnalytics"]


@dataclass(frozen=True)
class LayerBreakdown:
    """Dense-vs-sparse split of one quantity (FLOPs, bytes, latency...)."""

    dense: float
    sparse: float

    @property
    def total(self) -> float:
        """Dense plus sparse."""
        return self.dense + self.sparse

    @property
    def dense_fraction(self) -> float:
        """Dense share in [0, 1]."""
        return self.dense / self.total if self.total else 0.0

    @property
    def sparse_fraction(self) -> float:
        """Sparse share in [0, 1]."""
        return self.sparse / self.total if self.total else 0.0

    def as_percentages(self) -> tuple[float, float]:
        """(dense %, sparse %) as plotted by Figure 3."""
        return 100.0 * self.dense_fraction, 100.0 * self.sparse_fraction


class ModelAnalytics:
    """Per-workload analytic counters used by Figure 3 and the performance model."""

    def __init__(self, config: DLRMConfig) -> None:
        self._config = config

    @property
    def config(self) -> DLRMConfig:
        """The analysed workload configuration."""
        return self._config

    # ------------------------------------------------------------------
    # FLOPs
    # ------------------------------------------------------------------
    def bottom_mlp_flops_per_sample(self) -> int:
        """Bottom-MLP FLOPs for one ranked item."""
        return self._config.bottom_mlp.flops_per_sample(self._config.num_dense_features)

    def top_mlp_flops_per_sample(self) -> int:
        """Top-MLP FLOPs for one ranked item."""
        return self._config.top_mlp.flops_per_sample(self._config.top_mlp_input_dim)

    def interaction_flops_per_sample(self) -> int:
        """Feature-interaction FLOPs for one ranked item."""
        return 2 * self._config.embedding.embedding_dim * self._config.num_interaction_pairs

    def dense_flops_per_sample(self) -> int:
        """All dense-layer FLOPs (bottom MLP + interaction + top MLP) per item."""
        return (
            self.bottom_mlp_flops_per_sample()
            + self.interaction_flops_per_sample()
            + self.top_mlp_flops_per_sample()
        )

    def sparse_flops_per_sample(self) -> int:
        """Embedding pooling FLOPs per item (one add per gathered element)."""
        emb = self._config.embedding
        return emb.num_tables * emb.pooling * emb.embedding_dim

    def dense_flops_per_query(self) -> int:
        """Dense FLOPs for one query (batch of items)."""
        return self.dense_flops_per_sample() * self._config.batch_size

    def flops_breakdown(self) -> LayerBreakdown:
        """Figure 3(a) FLOPs split."""
        return LayerBreakdown(
            dense=float(self.dense_flops_per_sample()),
            sparse=float(self.sparse_flops_per_sample()),
        )

    # ------------------------------------------------------------------
    # Memory footprint (model parameters)
    # ------------------------------------------------------------------
    def dense_parameter_bytes(self) -> int:
        """Bottom plus top MLP parameter footprint."""
        bottom = self._config.bottom_mlp.num_parameters(self._config.num_dense_features)
        top = self._config.top_mlp.num_parameters(self._config.top_mlp_input_dim)
        return 4 * (bottom + top)

    def sparse_parameter_bytes(self) -> int:
        """Aggregate embedding-table footprint."""
        return self._config.embedding.total_bytes

    def model_bytes(self) -> int:
        """Full model footprint (what a model-wise replica must load)."""
        return self.dense_parameter_bytes() + self.sparse_parameter_bytes()

    def memory_breakdown(self) -> LayerBreakdown:
        """Figure 3(a) memory-consumption split."""
        return LayerBreakdown(
            dense=float(self.dense_parameter_bytes()),
            sparse=float(self.sparse_parameter_bytes()),
        )

    # ------------------------------------------------------------------
    # Memory traffic
    # ------------------------------------------------------------------
    def embedding_bytes_read_per_query(self) -> int:
        """Bytes fetched from embedding tables to serve one query."""
        emb = self._config.embedding
        return (
            self._config.batch_size
            * emb.num_tables
            * emb.pooling
            * emb.embedding_dim
            * emb.dtype_bytes
        )

    def embedding_utility_per_query(self) -> float:
        """Upper bound on the fraction of embedding memory touched by one query.

        The paper's motivation (Section III-A) observes that a query touches at
        most ``batch * pooling`` of the rows of each table, i.e. a vanishing
        fraction of the allocated memory.  Duplicate lookups make the true
        fraction even smaller; this analytic value is the no-duplicate bound.
        """
        emb = self._config.embedding
        touched_rows = min(self._config.batch_size * emb.pooling, emb.rows_per_table)
        return touched_rows / emb.rows_per_table

    def summary(self) -> dict[str, float]:
        """Convenient dictionary of the headline analytic quantities."""
        flops = self.flops_breakdown()
        memory = self.memory_breakdown()
        return {
            "dense_flops_per_sample": float(self.dense_flops_per_sample()),
            "sparse_flops_per_sample": float(self.sparse_flops_per_sample()),
            "dense_flops_pct": flops.as_percentages()[0],
            "sparse_flops_pct": flops.as_percentages()[1],
            "dense_param_bytes": float(self.dense_parameter_bytes()),
            "sparse_param_bytes": float(self.sparse_parameter_bytes()),
            "dense_memory_pct": memory.as_percentages()[0],
            "sparse_memory_pct": memory.as_percentages()[1],
            "embedding_bytes_read_per_query": float(self.embedding_bytes_read_per_query()),
            "embedding_utility_per_query": self.embedding_utility_per_query(),
        }
