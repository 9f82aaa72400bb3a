"""Tests for the end-to-end ElasticRec planner."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.baseline import ModelWisePlanner
from repro.core.gpu_cache import CachedModelWisePlanner
from repro.core.hpa_policy import DENSE_LATENCY_SLA_FRACTION
from repro.core.partitioning import DEFAULT_MAX_SHARDS
from repro.core.plan import ROLE_DENSE
from repro.core.planner import ElasticRecPlanner
from repro.hardware.perf_model import PerfModel


class TestPlanStructure:
    def test_one_dense_plus_shards_per_table(self, small_elastic_plan, small_config):
        plan = small_elastic_plan
        assert len(plan.dense_deployments) == 1
        shards_per_table = plan.sharding.shards_per_table()
        assert len(plan.embedding_deployments) == sum(shards_per_table.values())
        assert set(shards_per_table) == set(range(small_config.embedding.num_tables))

    def test_all_tables_partitioned_identically(self, small_elastic_plan):
        boundaries = small_elastic_plan.sharding.table_boundaries
        assert all(b == boundaries[0] for b in boundaries)

    def test_hpa_targets_assigned_by_role(self, small_elastic_plan):
        for deployment in small_elastic_plan.deployments:
            assert deployment.hpa is not None
            if deployment.role == ROLE_DENSE:
                assert deployment.hpa.metric == "p95_latency"
            else:
                assert deployment.hpa.metric == "qps"

    def test_embedding_memory_includes_min_alloc(self, small_elastic_plan, cpu_cluster):
        min_mem = cpu_cluster.container_policy.min_mem_alloc_gb * 1e9
        for deployment in small_elastic_plan.embedding_deployments:
            assert deployment.per_replica_memory_bytes == pytest.approx(
                deployment.embedding_shard.capacity_bytes + min_mem
            )

    def test_startup_time_grows_with_shard_size(self, small_elastic_plan):
        shards = small_elastic_plan.embedding_deployments_for_table(0)
        assert shards[0].startup_s < shards[-1].startup_s


class TestReplicaSizing:
    def test_replica_counts_cover_target(self, small_elastic_plan, cpu_cluster):
        headroom = cpu_cluster.utilization_headroom
        for deployment in small_elastic_plan.deployments:
            capacity = deployment.replicas * deployment.per_replica_qps * headroom
            assert capacity >= small_elastic_plan.target_qps - 1e-6

    def test_replica_counts_are_minimal(self, small_elastic_plan, cpu_cluster):
        headroom = cpu_cluster.utilization_headroom
        for deployment in small_elastic_plan.deployments:
            if deployment.replicas > 1:
                smaller = (deployment.replicas - 1) * deployment.per_replica_qps * headroom
                assert smaller < small_elastic_plan.target_qps

    def test_hotter_shards_get_more_replicas(self, small_elastic_plan):
        """Figure 14: replica counts are proportional to shard hotness."""
        shards = small_elastic_plan.embedding_deployments_for_table(0)
        replicas = [d.replicas for d in shards]
        assert replicas[0] == max(replicas)
        assert replicas[0] > replicas[-1]

    def test_higher_target_never_reduces_replicas(self, cpu_cluster, small_config):
        planner = ElasticRecPlanner(cpu_cluster)
        low = planner.plan(small_config, target_qps=50)
        high = planner.plan(small_config, target_qps=200)
        assert high.total_replicas > low.total_replicas
        assert high.total_memory_gb > low.total_memory_gb

    def test_dense_replicas_match_perf_model(self, small_elastic_plan, cpu_cluster, small_config):
        perf = PerfModel(cpu_cluster)
        dense = small_elastic_plan.dense_deployments[0]
        expected = max(
            1,
            math.ceil(
                small_elastic_plan.target_qps
                / (perf.dense_qps(small_config) * cpu_cluster.utilization_headroom)
            ),
        )
        assert dense.replicas == expected


class TestPlannerOptions:
    def test_forced_shard_count(self, cpu_cluster, small_config):
        planner = ElasticRecPlanner(cpu_cluster)
        plan = planner.plan(small_config, target_qps=100, num_shards=3)
        assert plan.sharding.shards_per_table() == {0: 3, 1: 3}

    def test_dp_choice_not_worse_than_forced(self, cpu_cluster, small_config):
        """The DP-chosen shard count should beat (or match) forcing other counts."""
        planner = ElasticRecPlanner(cpu_cluster)
        chosen = planner.partition(small_config)
        assert chosen.boundaries[-1] == small_config.embedding.rows_per_table
        assert 1 <= chosen.num_shards <= DEFAULT_MAX_SHARDS
        for forced in (1, 2, 8):
            alternative = planner.partition(small_config, num_shards=forced)
            assert chosen.total_cost_bytes <= alternative.total_cost_bytes * (1 + 1e-9)

    def test_invalid_arguments(self, cpu_cluster, small_config):
        with pytest.raises(ValueError):
            ElasticRecPlanner(cpu_cluster, max_shards=0)
        planner = ElasticRecPlanner(cpu_cluster)
        with pytest.raises(ValueError):
            planner.plan(small_config, target_qps=0)

    def test_gpu_cluster_puts_dense_on_gpu(self, gpu_cluster, small_config):
        plan = ElasticRecPlanner(gpu_cluster).plan(small_config, target_qps=100)
        dense = plan.dense_deployments[0]
        assert dense.gpus == 1
        assert all(d.gpus == 0 for d in plan.embedding_deployments)

    def test_gpu_dense_needs_fewer_replicas(self, cpu_cluster, gpu_cluster, small_config):
        cpu_plan = ElasticRecPlanner(cpu_cluster).plan(small_config, target_qps=100)
        gpu_plan = ElasticRecPlanner(gpu_cluster).plan(small_config, target_qps=100)
        assert gpu_plan.dense_deployments[0].replicas <= cpu_plan.dense_deployments[0].replicas


def _with_hpa_fraction(cluster, fraction):
    policy = dataclasses.replace(cluster.container_policy, hpa_target_fraction=fraction)
    return dataclasses.replace(cluster, container_policy=policy)


class TestQPSMax:
    """The HPA targets come from the planner's analytic per-replica QPS.

    The paper stress-tests each sparse shard for its latency knee, QPS_max
    (Section IV-D); the planner stands in ``hpa_target_fraction`` of the
    shard's modelled saturation throughput.
    """

    @pytest.mark.parametrize("cluster_name", ["cpu_cluster", "gpu_cluster"])
    def test_sparse_targets_sit_below_saturation(self, request, cluster_name, small_config):
        cluster = request.getfixturevalue(cluster_name)
        plan = ElasticRecPlanner(cluster).plan(small_config, target_qps=100)
        fraction = cluster.container_policy.hpa_target_fraction
        assert fraction < 1.0
        for deployment in plan.embedding_deployments:
            assert deployment.hpa.is_throughput_target
            qps_max = deployment.hpa.target_value
            assert qps_max == pytest.approx(deployment.per_replica_qps * fraction)
            assert 0.0 < qps_max < deployment.per_replica_qps
        dense = plan.dense_deployments[0]
        assert dense.hpa.target_value == pytest.approx(cluster.sla_s * DENSE_LATENCY_SLA_FRACTION)

    def test_saturation_is_the_perf_models_shard_qps(self, small_elastic_plan, cpu_cluster):
        perf = PerfModel(cpu_cluster)
        batch_size = small_elastic_plan.workload.batch_size
        for deployment in small_elastic_plan.embedding_deployments:
            shard = deployment.embedding_shard
            assert deployment.per_replica_qps == perf.sparse_shard_qps(
                gathers_per_item=shard.expected_gathers_per_item,
                embedding_dim=shard.embedding_dim,
                batch_size=batch_size,
                dtype_bytes=shard.dtype_bytes,
                cores=cpu_cluster.container_policy.sparse_shard_cores,
            )

    @pytest.mark.parametrize("fraction", [0.5, 0.9, 1.0])
    def test_targets_follow_the_policy_fraction(self, cpu_cluster, small_config, fraction):
        default = ElasticRecPlanner(cpu_cluster).plan(small_config, target_qps=100)
        cluster = _with_hpa_fraction(cpu_cluster, fraction)
        plan = ElasticRecPlanner(cluster).plan(small_config, target_qps=100)
        for ours, theirs in zip(plan.embedding_deployments, default.embedding_deployments):
            assert ours.hpa.target_value == pytest.approx(ours.per_replica_qps * fraction)
            # The fraction sets when the HPA reacts, not the initial sizing.
            assert ours.replicas == theirs.replicas
            assert ours.per_replica_qps == theirs.per_replica_qps

    def test_shards_with_more_gathers_get_lower_targets(self, small_elastic_plan):
        for table in range(small_elastic_plan.workload.embedding.num_tables):
            shards = [
                d
                for d in small_elastic_plan.embedding_deployments
                if d.embedding_shard.table_id == table
            ]
            assert len(shards) > 1
            shards.sort(key=lambda d: d.embedding_shard.expected_gathers_per_item)
            targets = [d.hpa.target_value for d in shards]
            assert targets == sorted(targets, reverse=True)

    def test_planning_twice_gives_the_same_targets(self, cpu_cluster, small_config):
        first, second = (
            ElasticRecPlanner(cpu_cluster).plan(small_config, target_qps=100) for _ in range(2)
        )
        assert [d.hpa for d in first.deployments] == [d.hpa for d in second.deployments]

    @pytest.mark.parametrize(
        "planner_cls, cluster_name",
        [
            (ModelWisePlanner, "cpu_cluster"),
            (ModelWisePlanner, "gpu_cluster"),
            (CachedModelWisePlanner, "gpu_cluster"),
        ],
    )
    def test_monolithic_target_sits_below_saturation(
        self, request, planner_cls, cluster_name, small_config
    ):
        cluster = request.getfixturevalue(cluster_name)
        planner = planner_cls(cluster)
        (deployment,) = planner.plan(small_config, target_qps=100).deployments
        fraction = cluster.container_policy.hpa_target_fraction
        assert deployment.per_replica_qps == planner.replica_qps(small_config)
        assert deployment.hpa.target_value == pytest.approx(deployment.per_replica_qps * fraction)
        assert deployment.hpa.target_value < deployment.per_replica_qps
