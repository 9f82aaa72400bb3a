"""The end-to-end ElasticRec deployment planner (Section IV).

Given a workload configuration, a cluster specification and a target QPS, the
planner performs the paper's pre-deployment pipeline (Figure 7):

1. **Deployment cost estimator** — profile embedding gathers on the target
   hardware and fit the ``QPS(x)`` regression model (Section IV-B, Figure 9).
2. **Table partitioning module** — run the Algorithm-2 dynamic program per
   embedding table to find the memory-minimising shard boundaries.
3. **Deployment module** — emit one containerised deployment per shard type
   (a dense DNN shard plus every embedding shard of every table), size its
   replica count for the target QPS and attach its HPA policy.

All tables of a workload share size, dimension, pooling factor and access
skew (Table II), so the partitioning DP is solved once and its boundaries are
reused for every table; the resulting shard/deployment objects are still
emitted per table because Kubernetes scales each table's shards
independently.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.cost_model import DEFAULT_DP_TARGET_TRAFFIC, DeploymentCostModel
from repro.core.hpa_policy import build_hpa_target
from repro.core.partitioning import (
    DEFAULT_GRANULARITY,
    DEFAULT_MAX_SHARDS,
    PartitioningResult,
    partition_table,
)
from repro.core.plan import DeploymentPlan, ROLE_DENSE, ROLE_EMBEDDING, ShardDeployment
from repro.core.preprocessing import SortedTable
from repro.core.qps_model import QPSRegressionModel
from repro.core.sharding import DenseShardSpec, EmbeddingShardSpec, ShardingPlan
from repro.data.distributions import AccessDistribution
from repro.hardware.perf_model import PerfModel
from repro.hardware.specs import ClusterSpec
from repro.model.configs import DLRMConfig
from repro.model.embedding import EmbeddingTableSpec

__all__ = ["ElasticRecPlanner"]


class ElasticRecPlanner:
    """Plans an ElasticRec microservice deployment for DLRM workloads."""

    def __init__(
        self,
        cluster: ClusterSpec,
        max_shards: int = DEFAULT_MAX_SHARDS,
        granularity: int = DEFAULT_GRANULARITY,
        dp_target_traffic: float = DEFAULT_DP_TARGET_TRAFFIC,
    ) -> None:
        if max_shards <= 0:
            raise ValueError("max_shards must be positive")
        self._cluster = cluster
        self._perf_model = PerfModel(cluster)
        self._max_shards = int(max_shards)
        self._granularity = int(granularity)
        self._dp_target_traffic = float(dp_target_traffic)

    @property
    def cluster(self) -> ClusterSpec:
        """The target cluster."""
        return self._cluster

    @property
    def perf_model(self) -> PerfModel:
        """The performance model standing in for hardware profiling."""
        return self._perf_model

    # ------------------------------------------------------------------
    # Pre-deployment: cost estimation and table partitioning
    # ------------------------------------------------------------------
    def fit_qps_model(self, config: DLRMConfig) -> QPSRegressionModel:
        """One-time gather profiling plus regression fit for this workload.

        Profiling runs under the sparse-shard container's core budget so that
        Algorithm 1's replica estimates match the shards that will actually
        be deployed.
        """
        return QPSRegressionModel.from_profile(
            self._perf_model,
            embedding_dim=config.embedding.embedding_dim,
            batch_size=config.batch_size,
            dtype_bytes=config.embedding.dtype_bytes,
            cores=self._cluster.container_policy.sparse_shard_cores,
        )

    def cost_model_for_table(
        self,
        config: DLRMConfig,
        table_id: int = 0,
        distribution: AccessDistribution | None = None,
    ) -> DeploymentCostModel:
        """Algorithm-1 evaluator for one (hot-sorted) table of the workload.

        ``distribution`` overrides the workload's synthetic locality-derived
        access skew with a measured one — e.g. an
        :class:`~repro.data.distributions.EmpiricalDistribution` built from
        the per-embedding access counts a production server records.
        """
        emb = config.embedding
        spec = EmbeddingTableSpec(
            table_id=table_id,
            rows=emb.rows_per_table,
            dim=emb.embedding_dim,
            dtype_bytes=emb.dtype_bytes,
        )
        table = SortedTable(
            spec=spec,
            distribution=distribution if distribution is not None else emb.access_distribution(),
            pooling=emb.pooling,
        )
        return DeploymentCostModel(
            table=table,
            qps_model=self.fit_qps_model(config),
            target_traffic=self._dp_target_traffic,
            min_mem_alloc_bytes=self._cluster.container_policy.min_mem_alloc_gb * 1e9,
        )

    def partition(
        self, config: DLRMConfig, num_shards: int | None = None
    ) -> PartitioningResult:
        """Run Algorithm 2 for one table of the workload."""
        cost_model = self.cost_model_for_table(config)
        return partition_table(
            cost_model,
            max_shards=self._max_shards,
            granularity=self._granularity,
            num_shards=num_shards,
        )

    def sharding_plan(
        self,
        config: DLRMConfig,
        num_shards: int | None = None,
        partitioning: PartitioningResult | None = None,
        table_distributions: Sequence[AccessDistribution] | None = None,
    ) -> ShardingPlan:
        """Shard every table (and the dense layers) of the workload.

        By default the Algorithm-2 DP runs once (all Table II tables share
        size, pooling and skew) and its boundaries are reused for every table.
        ``partitioning`` supplies a pre-computed plan instead (e.g. one of the
        ablation strategies in :mod:`repro.core.alternative_partitioners`).
        ``table_distributions`` supplies one *measured* access distribution
        per table — the production scenario where each table has its own
        recorded access-count history — in which case every table is
        partitioned independently with its own distribution.
        """
        emb = config.embedding
        if table_distributions is not None:
            if partitioning is not None:
                raise ValueError("pass either partitioning or table_distributions, not both")
            if len(table_distributions) != emb.num_tables:
                raise ValueError(
                    f"expected {emb.num_tables} table distributions, "
                    f"got {len(table_distributions)}"
                )
            partitionings = []
            for table_id, distribution in enumerate(table_distributions):
                cost_model = self.cost_model_for_table(
                    config, table_id=table_id, distribution=distribution
                )
                partitionings.append(
                    partition_table(
                        cost_model,
                        max_shards=self._max_shards,
                        granularity=self._granularity,
                        num_shards=num_shards,
                    )
                )
        else:
            if partitioning is None:
                partitioning = self.partition(config, num_shards=num_shards)
            elif partitioning.num_rows != emb.rows_per_table:
                raise ValueError(
                    "the supplied partitioning covers "
                    f"{partitioning.num_rows} rows but each table has "
                    f"{emb.rows_per_table}"
                )
            partitionings = [partitioning] * emb.num_tables

        shards = []
        for table_id, table_partitioning in enumerate(partitionings):
            for shard_index, estimate in enumerate(table_partitioning.shard_estimates):
                shards.append(
                    EmbeddingShardSpec(
                        model_name=config.name,
                        table_id=table_id,
                        shard_index=shard_index,
                        start_row=estimate.start_row,
                        end_row=estimate.end_row,
                        embedding_dim=emb.embedding_dim,
                        dtype_bytes=emb.dtype_bytes,
                        expected_gathers_per_item=estimate.expected_gathers,
                        coverage=estimate.coverage,
                    )
                )
        return ShardingPlan(
            config=config,
            dense_shard=DenseShardSpec.from_config(config),
            embedding_shards=tuple(shards),
            table_boundaries=tuple(p.boundaries for p in partitionings),
        )

    # ------------------------------------------------------------------
    # Deployment sizing
    # ------------------------------------------------------------------
    def _dense_deployment(
        self, config: DLRMConfig, sharding: ShardingPlan, target_qps: float
    ) -> ShardDeployment:
        policy = self._cluster.container_policy
        headroom = self._cluster.utilization_headroom
        per_replica_qps = self._perf_model.dense_qps(config)
        replicas = max(1, math.ceil(target_qps / (per_replica_qps * headroom)))
        memory_bytes = sharding.dense_shard.parameter_bytes + policy.min_mem_alloc_gb * 1e9
        return ShardDeployment(
            name=sharding.dense_shard.name,
            role=ROLE_DENSE,
            replicas=replicas,
            per_replica_memory_bytes=memory_bytes,
            cores=policy.dense_shard_cores,
            gpus=policy.dense_shard_gpus if self._cluster.is_gpu_system else 0,
            per_replica_qps=per_replica_qps,
            startup_s=policy.startup_seconds(memory_bytes / 1e9),
            hpa=build_hpa_target("dense", sla_s=self._cluster.sla_s),
        )

    def _embedding_deployment(
        self, config: DLRMConfig, shard: EmbeddingShardSpec, target_qps: float
    ) -> ShardDeployment:
        policy = self._cluster.container_policy
        headroom = self._cluster.utilization_headroom
        per_replica_qps = self._perf_model.sparse_shard_qps(
            gathers_per_item=shard.expected_gathers_per_item,
            embedding_dim=shard.embedding_dim,
            batch_size=config.batch_size,
            dtype_bytes=shard.dtype_bytes,
            cores=policy.sparse_shard_cores,
        )
        replicas = max(1, math.ceil(target_qps / (per_replica_qps * headroom)))
        memory_bytes = shard.capacity_bytes + policy.min_mem_alloc_gb * 1e9
        # The HPA target stands in for the paper's stress-tested QPS_max knee,
        # which sits a bit below the replica's saturation throughput
        # (Section IV-D).
        max_qps = per_replica_qps * policy.hpa_target_fraction
        return ShardDeployment(
            name=shard.name,
            role=ROLE_EMBEDDING,
            replicas=replicas,
            per_replica_memory_bytes=memory_bytes,
            cores=policy.sparse_shard_cores,
            gpus=0,
            per_replica_qps=per_replica_qps,
            startup_s=policy.startup_seconds(memory_bytes / 1e9),
            hpa=build_hpa_target("sparse", shard_max_qps=max_qps),
            embedding_shard=shard,
        )

    def plan(
        self,
        config: DLRMConfig,
        target_qps: float,
        num_shards: int | None = None,
        partitioning: PartitioningResult | None = None,
        table_distributions: Sequence[AccessDistribution] | None = None,
    ) -> DeploymentPlan:
        """Produce the full ElasticRec deployment plan for a target QPS."""
        if target_qps <= 0:
            raise ValueError("target_qps must be positive")
        sharding = self.sharding_plan(
            config,
            num_shards=num_shards,
            partitioning=partitioning,
            table_distributions=table_distributions,
        )
        deployments = [self._dense_deployment(config, sharding, target_qps)]
        for shard in sharding.embedding_shards:
            deployments.append(self._embedding_deployment(config, shard, target_qps))
        return DeploymentPlan(
            name=f"{config.name}-elasticrec",
            strategy="elasticrec",
            workload=config,
            cluster=self._cluster,
            target_qps=target_qps,
            deployments=tuple(deployments),
            sharding=sharding,
        )
