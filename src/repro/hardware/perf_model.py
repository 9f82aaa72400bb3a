"""Serving performance model for dense and sparse DLRM layers.

All ElasticRec planning decisions consume only per-shard QPS and latency
numbers; the real system obtains them by one-time profiling on the target
hardware (Section IV-B).  This module is the stand-in for that hardware: a
roofline-style analytic model calibrated so the relationships the paper
measures (Figures 3(b), 5 and 9) hold:

* dense-layer latency grows with MLP FLOPs, is far lower on the GPU, and has
  a sub-linear benefit from adding cores;
* sparse-layer latency is dominated by a fixed per-query overhead plus a
  per-gathered-vector random-access cost proportional to the vector's bytes;
* co-locating both layers in one monolithic (model-wise) container degrades
  both by a small interference factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.analytics import ModelAnalytics
from repro.model.configs import DLRMConfig
from repro.hardware.specs import ClusterSpec, PerfCalibration

__all__ = [
    "PerfModel",
    "LatencyEstimate",
    "BatchLatencyModel",
    "cache_adjusted_multiplier",
]

#: Deployment roles understood by the batch latency model.  Mirrors
#: ``repro.core.plan`` (not imported to keep the layering core -> hardware).
_BATCH_KINDS = ("dense", "embedding", "monolithic")


def cache_adjusted_multiplier(
    multiplier: float, cache_hit_rate: float, hit_cost_fraction: float
) -> float:
    """Gather-cost multiplier after a replica-local embedding cache.

    A fraction ``cache_hit_rate`` of the query's gathers is served from the
    cache at ``hit_cost_fraction`` of its DRAM cost, so the gather term
    scales by ``1 - cache_hit_rate * (1 - hit_cost_fraction)``.  The two
    boundary rates are special-cased to keep the engine's bit-exactness
    contracts independent of float rounding: hit rate 0 returns
    ``multiplier`` untouched (the no-cache path), hit rate 1 returns exactly
    ``multiplier * hit_cost_fraction`` (a fully warm cache serving every
    gather).

    ``ReplicaPool.cached_price`` inlines this exact algebra (with
    ``1 - hit_cost_fraction`` precomputed per pool, the same single
    subtraction) rather than calling it per query.  The differential test
    ``TestInlinePricingMatchesReference`` in ``tests/serving/test_cache.py``
    locks the two together: it checks every multiplier a cached run charges
    against this function over the ``ReplicaCache`` reference in
    ``tests/serving/oracle.py``, float for float.  Change one and you must
    change the other.
    """
    if not 0.0 <= cache_hit_rate <= 1.0:
        raise ValueError("cache_hit_rate must be in [0, 1]")
    if not 0.0 <= hit_cost_fraction <= 1.0:
        raise ValueError("hit_cost_fraction must be in [0, 1]")
    if cache_hit_rate == 0.0:
        return multiplier
    if cache_hit_rate == 1.0:
        return multiplier * hit_cost_fraction
    return multiplier * (1.0 - cache_hit_rate * (1.0 - hit_cost_fraction))


@dataclass(frozen=True)
class BatchLatencyModel:
    """Batch/cost scaling of one deployment's per-replica service time.

    The planner's per-replica latency estimates (``1 / per_replica_qps``) are
    the *mean*: one query of average cost at batch size one.  This model maps
    a batch of queries with heterogeneous costs onto a multiple of that mean:

    * ``dense`` — GEMM efficiency grows with batch size, so a batch of ``B``
      queries costs ``B ** dense_batch_exponent`` means (sub-linear); the
      per-query cost multipliers are ignored (dense work does not vary with
      the embedding access pattern);
    * ``embedding`` — gathers scale per-vector: a batch whose cost
      multipliers sum to ``M`` costs ``1 + (1 - f) * (M - 1)`` means, where
      ``f`` is the fixed per-query overhead's share of the single-query
      latency (amortised once per batch);
    * ``monolithic`` — dense batching on the batch size times the sparse
      adjustment on the batch's *mean* multiplier.

    ``factor(1, 1.0)`` is exactly ``1.0`` in floating point for every kind,
    so a batch-size-one server under the homogeneous cost model reproduces
    the unbatched service times bit-for-bit.
    """

    kind: str
    batch_exponent: float
    overhead_fraction: float

    def __post_init__(self) -> None:
        if self.kind not in _BATCH_KINDS:
            raise ValueError(f"kind must be one of {_BATCH_KINDS}, got {self.kind!r}")
        if not 0 < self.batch_exponent <= 1:
            raise ValueError("batch_exponent must be in (0, 1]")
        if not 0 <= self.overhead_fraction < 1:
            raise ValueError("overhead_fraction must be in [0, 1)")

    def factor(self, batch_size: int, multiplier_sum: float | None = None) -> float:
        """Service-time multiple of the mean for one batch.

        ``multiplier_sum`` is the sum of the batch members' per-query cost
        multipliers (mean 1.0 by construction); ``None`` means an
        average-cost batch (``multiplier_sum == batch_size``).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        total = float(batch_size) if multiplier_sum is None else float(multiplier_sum)
        if total <= 0:
            raise ValueError("multiplier_sum must be positive")
        if self.kind == "dense":
            return float(batch_size) ** self.batch_exponent
        if self.kind == "embedding":
            return 1.0 + (1.0 - self.overhead_fraction) * (total - 1.0)
        mean = total / batch_size
        sparse_adjustment = 1.0 + (1.0 - self.overhead_fraction) * (mean - 1.0)
        return (float(batch_size) ** self.batch_exponent) * sparse_adjustment

    def latency_for(
        self, base_latency_s: float, batch_size: int, multiplier_sum: float | None = None
    ) -> float:
        """Seconds one replica needs to serve the batch."""
        if base_latency_s <= 0:
            raise ValueError("base_latency_s must be positive")
        return base_latency_s * self.factor(batch_size, multiplier_sum)


@dataclass(frozen=True)
class LatencyEstimate:
    """Per-query latency split used by Figure 3(b)."""

    dense_s: float
    sparse_s: float

    @property
    def total_s(self) -> float:
        """End-to-end (serialised) per-query latency."""
        return self.dense_s + self.sparse_s

    @property
    def dense_fraction(self) -> float:
        """Dense share of the end-to-end latency."""
        return self.dense_s / self.total_s if self.total_s else 0.0

    @property
    def sparse_fraction(self) -> float:
        """Sparse share of the end-to-end latency."""
        return self.sparse_s / self.total_s if self.total_s else 0.0


class PerfModel:
    """Latency/QPS estimates for shards of a DLRM workload on a cluster."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self._cluster = cluster
        self._calibration = cluster.calibration

    @property
    def cluster(self) -> ClusterSpec:
        """The cluster this model is calibrated for."""
        return self._cluster

    @property
    def calibration(self) -> PerfCalibration:
        """Raw calibration constants."""
        return self._calibration

    # ------------------------------------------------------------------
    # Dense (MLP + interaction) layer
    # ------------------------------------------------------------------
    def _cpu_dense_gflops(self, cores: int) -> float:
        cal = self._calibration
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        scale = (cores / cal.cpu_dense_reference_cores) ** cal.cpu_dense_parallel_exponent
        return cal.cpu_dense_gflops_at_reference * scale

    def dense_query_latency(
        self,
        config: DLRMConfig,
        cores: int | None = None,
        use_gpu: bool | None = None,
    ) -> float:
        """Seconds to execute the dense layers of one query.

        ``use_gpu`` defaults to the cluster's system kind (dense layers run on
        the GPU in the CPU-GPU system, on the CPU otherwise).
        """
        cal = self._calibration
        analytics = ModelAnalytics(config)
        flops = analytics.dense_flops_per_query()
        if use_gpu is None:
            use_gpu = self._cluster.is_gpu_system
        if use_gpu:
            if not self._cluster.node.has_gpu:
                raise ValueError("cluster nodes have no GPU but use_gpu was requested")
            compute_s = flops / (cal.gpu_dense_effective_tflops * 1e12)
            transfer_bytes = (
                config.batch_size
                * (config.num_dense_features + config.num_feature_vectors * config.embedding.embedding_dim)
                * 4
            )
            pcie_gbps = self._cluster.node.gpu.pcie_gbps * cal.gpu_pcie_efficiency
            transfer_s = transfer_bytes / (pcie_gbps * 1e9)
            return cal.gpu_dense_overhead_s + compute_s + transfer_s
        cores = cores if cores is not None else self._cluster.container_policy.dense_shard_cores
        gflops = self._cpu_dense_gflops(cores)
        return cal.cpu_dense_overhead_s + flops / (gflops * 1e9)

    def dense_qps(
        self,
        config: DLRMConfig,
        cores: int | None = None,
        use_gpu: bool | None = None,
    ) -> float:
        """Queries/second one dense-shard replica sustains."""
        return 1.0 / self.dense_query_latency(config, cores=cores, use_gpu=use_gpu)

    # ------------------------------------------------------------------
    # Sparse (embedding) layer
    # ------------------------------------------------------------------
    def per_lookup_seconds(
        self,
        embedding_dim: int,
        dtype_bytes: int = 4,
        cores: int | None = None,
    ) -> float:
        """Cost of gathering one embedding vector from DRAM.

        ``cores`` is the gathering container's core request.  Below the
        calibration's ``sparse_reference_cores`` the gather stream cannot
        expose enough memory-level parallelism and the per-lookup cost grows
        inversely with the core count; at or above it the gathers are
        bandwidth-bound and extra cores do not help.
        """
        cal = self._calibration
        if embedding_dim <= 0 or dtype_bytes <= 0:
            raise ValueError("embedding_dim and dtype_bytes must be positive")
        row_bytes = embedding_dim * dtype_bytes
        transfer_us = row_bytes / cal.sparse_random_access_mb_per_s
        per_lookup_us = cal.sparse_per_lookup_base_us + transfer_us
        if cores is not None:
            if cores <= 0:
                raise ValueError("cores must be positive")
            if cores < cal.sparse_reference_cores:
                per_lookup_us *= cal.sparse_reference_cores / cores
        return per_lookup_us * 1e-6

    def sparse_shard_latency(
        self,
        gathers_per_item: float,
        embedding_dim: int,
        batch_size: int,
        dtype_bytes: int = 4,
        cores: int | None = None,
        cache_latency_reduction: float = 0.0,
    ) -> float:
        """Seconds for one embedding shard to serve its share of one query.

        ``gathers_per_item`` is the expected number of vectors gathered from
        this shard per ranked item (the paper's ``n_s``); the shard's total
        work is ``batch_size * gathers_per_item`` gathers.  ``cores`` is the
        shard container's core request (``None`` means an unconstrained,
        dedicated-machine profile).  ``cache_latency_reduction`` models a
        GPU-side embedding cache (Section VI-E) shaving a fraction off the
        gather latency.
        """
        if gathers_per_item < 0:
            raise ValueError("gathers_per_item must be non-negative")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0 <= cache_latency_reduction < 1:
            raise ValueError("cache_latency_reduction must be in [0, 1)")
        cal = self._calibration
        lookups = batch_size * gathers_per_item
        gather_s = lookups * self.per_lookup_seconds(embedding_dim, dtype_bytes, cores=cores)
        latency = cal.sparse_query_overhead_s + gather_s
        return latency * (1.0 - cache_latency_reduction)

    def sparse_shard_qps(
        self,
        gathers_per_item: float,
        embedding_dim: int,
        batch_size: int,
        dtype_bytes: int = 4,
        cores: int | None = None,
        cache_latency_reduction: float = 0.0,
    ) -> float:
        """Queries/second one embedding-shard replica sustains."""
        latency = self.sparse_shard_latency(
            gathers_per_item,
            embedding_dim,
            batch_size,
            dtype_bytes=dtype_bytes,
            cores=cores,
            cache_latency_reduction=cache_latency_reduction,
        )
        return 1.0 / latency

    def sparse_layer_latency(
        self,
        config: DLRMConfig,
        cache_latency_reduction: float = 0.0,
    ) -> float:
        """Seconds for the whole sparse layer of one query (all tables).

        Tables are gathered concurrently (table-level parallelism), so the
        layer latency equals the slowest table's latency; with identically
        configured tables that is simply one table's latency.
        """
        emb = config.embedding
        return self.sparse_shard_latency(
            gathers_per_item=emb.pooling,
            embedding_dim=emb.embedding_dim,
            batch_size=config.batch_size,
            dtype_bytes=emb.dtype_bytes,
            cache_latency_reduction=cache_latency_reduction,
        )

    def sparse_layer_qps(
        self,
        config: DLRMConfig,
        cache_latency_reduction: float = 0.0,
    ) -> float:
        """Queries/second the full sparse layer of one replica sustains."""
        return 1.0 / self.sparse_layer_latency(config, cache_latency_reduction)

    # ------------------------------------------------------------------
    # End-to-end / model-wise
    # ------------------------------------------------------------------
    def latency_breakdown(self, config: DLRMConfig) -> LatencyEstimate:
        """Dense/sparse split of a monolithic replica's per-query latency (Fig. 3(b))."""
        cores = self._cluster.container_policy.model_wise_cores
        return LatencyEstimate(
            dense_s=self.dense_query_latency(config, cores=cores),
            sparse_s=self.sparse_layer_latency(config),
        )

    def model_wise_qps(
        self,
        config: DLRMConfig,
        cache_latency_reduction: float = 0.0,
    ) -> float:
        """Queries/second of one model-wise replica.

        Following the paper's Figure 4 reasoning, the monolithic replica is
        bounded by its slower layer; the co-location interference factor
        models contention between the two layers sharing one container.
        """
        policy = self._cluster.container_policy
        dense = self.dense_qps(config, cores=policy.model_wise_cores)
        sparse = self.sparse_layer_qps(config, cache_latency_reduction)
        return min(dense, sparse) * self._calibration.colocation_interference

    # ------------------------------------------------------------------
    # Batch-aware serving latency
    # ------------------------------------------------------------------
    def batch_model(self, role: str) -> BatchLatencyModel:
        """The batch/cost scaling model for one deployment role.

        ``role`` is a deployment role as used by
        :mod:`repro.core.plan`: ``"dense"``, ``"embedding"`` or
        ``"monolithic"``.
        """
        cal = self._calibration
        return BatchLatencyModel(
            kind=role,
            batch_exponent=cal.dense_batch_exponent,
            overhead_fraction=cal.sparse_batch_overhead_fraction,
        )

    def latency_for(
        self,
        batch_size: int,
        gathers: float | None = None,
        *,
        base_latency_s: float,
        role: str = "embedding",
        cache_hit_rate: float = 0.0,
        hit_cost_fraction: float = 0.25,
    ) -> float:
        """Seconds one replica needs to serve a batch of queries.

        ``base_latency_s`` is the planner's mean per-query estimate
        (``1 / per_replica_qps``); ``gathers`` is the batch's summed
        per-query gather-cost multiplier (normalised so one average query is
        1.0; ``None`` means an average-cost batch).  ``latency_for(1, 1.0)``
        returns ``base_latency_s`` exactly — the planner's estimates are the
        mean of this distribution.

        ``cache_hit_rate`` splits the gather term into cache hits (costing
        ``hit_cost_fraction`` of a DRAM gather) and misses, via
        :func:`cache_adjusted_multiplier`.  At the default hit rate of 0 the
        returned latency is bit-for-bit the historical no-cache value — the
        serving engine relies on this to keep cache-disabled runs (and all
        existing golden digests) unchanged.
        """
        if cache_hit_rate != 0.0 and gathers is not None:
            gathers = cache_adjusted_multiplier(
                gathers, cache_hit_rate, hit_cost_fraction
            )
        elif not 0.0 <= cache_hit_rate <= 1.0:
            raise ValueError("cache_hit_rate must be in [0, 1]")
        return self.batch_model(role).latency_for(base_latency_s, batch_size, gathers)

    def rpc_overhead_s(self) -> float:
        """Average added latency of ElasticRec's cross-shard RPC communication."""
        if self._cluster.is_gpu_system:
            return self._calibration.rpc_overhead_gpu_s
        return self._calibration.rpc_overhead_cpu_s
