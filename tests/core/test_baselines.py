"""Tests for the model-wise and GPU-cache baseline planners."""

from __future__ import annotations

import pytest

from repro.core.baseline import ModelWisePlanner
from repro.core.gpu_cache import CachedModelWisePlanner
from repro.core.plan import ROLE_MONOLITHIC
from repro.model.analytics import ModelAnalytics
from repro.model.configs import microbenchmark


class TestModelWisePlanner:
    def test_single_monolithic_deployment(self, small_model_wise_plan):
        assert len(small_model_wise_plan.deployments) == 1
        deployment = small_model_wise_plan.deployments[0]
        assert deployment.role == ROLE_MONOLITHIC
        assert deployment.hpa.metric == "qps"

    def test_replica_memory_is_whole_model(self, small_model_wise_plan, small_config, cpu_cluster):
        deployment = small_model_wise_plan.deployments[0]
        expected = (
            ModelAnalytics(small_config).model_bytes()
            + cpu_cluster.container_policy.min_mem_alloc_gb * 1e9
        )
        assert deployment.per_replica_memory_bytes == pytest.approx(expected)

    def test_replicas_cover_target(self, small_model_wise_plan, cpu_cluster):
        deployment = small_model_wise_plan.deployments[0]
        capacity = deployment.replicas * deployment.per_replica_qps * cpu_cluster.utilization_headroom
        assert capacity >= small_model_wise_plan.target_qps

    def test_replica_qps_is_bottleneck_bound(self, cpu_cluster, small_config):
        planner = ModelWisePlanner(cpu_cluster)
        qps = planner.replica_qps(small_config)
        perf = planner.perf_model
        policy = cpu_cluster.container_policy
        assert qps <= perf.dense_qps(small_config, cores=policy.model_wise_cores)
        assert qps <= perf.sparse_layer_qps(small_config)

    def test_heavier_mlp_means_more_replicas(self, cpu_cluster):
        """Figure 12(a): heavier dense layers force more whole-model replicas."""
        planner = ModelWisePlanner(cpu_cluster)
        light = planner.plan(microbenchmark(mlp_size="light", num_tables=2), 100)
        heavy = planner.plan(microbenchmark(mlp_size="heavy", num_tables=2), 100)
        assert heavy.total_replicas >= light.total_replicas
        assert heavy.total_memory_gb >= light.total_memory_gb

    def test_locality_does_not_change_memory(self, cpu_cluster):
        """Figure 12(b): the baseline cannot exploit access locality."""
        planner = ModelWisePlanner(cpu_cluster)
        low = planner.plan(microbenchmark(locality="low", num_tables=2), 100)
        high = planner.plan(microbenchmark(locality="high", num_tables=2), 100)
        assert low.total_memory_gb == pytest.approx(high.total_memory_gb)

    def test_invalid_target(self, cpu_cluster, small_config):
        with pytest.raises(ValueError):
            ModelWisePlanner(cpu_cluster).plan(small_config, 0)


class TestCachedModelWisePlanner:
    def test_requires_gpu_cluster(self, cpu_cluster):
        with pytest.raises(ValueError):
            CachedModelWisePlanner(cpu_cluster)

    def test_cache_raises_replica_qps(self, gpu_cluster, small_config):
        plain = ModelWisePlanner(gpu_cluster)
        cached = CachedModelWisePlanner(gpu_cluster)
        assert cached.replica_qps(small_config) > plain.replica_qps(small_config)

    def test_cache_reduces_memory_but_not_below_elasticrec(
        self, gpu_cluster, small_config
    ):
        """Figure 20: the cache trims the baseline's memory; ElasticRec still wins."""
        from repro.core.planner import ElasticRecPlanner

        plain = ModelWisePlanner(gpu_cluster).plan(small_config, 200)
        cached = CachedModelWisePlanner(gpu_cluster).plan(small_config, 200)
        elastic = ElasticRecPlanner(gpu_cluster).plan(small_config, 200)
        assert cached.total_memory_gb < plain.total_memory_gb
        assert elastic.total_memory_gb < cached.total_memory_gb

    def test_cache_parameters_match_paper(self, gpu_cluster):
        cached = CachedModelWisePlanner(gpu_cluster)
        assert cached.cache_hit_rate == pytest.approx(0.90)
        assert cached.cache_latency_reduction == pytest.approx(0.47)

    def test_strategy_label(self, gpu_cluster, small_config):
        plan = CachedModelWisePlanner(gpu_cluster).plan(small_config, 100)
        assert plan.strategy == "model-wise-cache"
