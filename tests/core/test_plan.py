"""Tests for deployment plans."""

from __future__ import annotations

import pytest

from repro.core.hpa_policy import build_hpa_target
from repro.core.plan import DeploymentPlan, ROLE_DENSE, ROLE_EMBEDDING, ROLE_MONOLITHIC, ShardDeployment


def make_deployment(name="dense-0", role=ROLE_DENSE, replicas=2, memory=1e9, shard=None):
    return ShardDeployment(
        name=name,
        role=role,
        replicas=replicas,
        per_replica_memory_bytes=memory,
        cores=4,
        gpus=0,
        per_replica_qps=10.0,
        startup_s=10.0,
        hpa=build_hpa_target("sparse", shard_max_qps=9.0) if role != ROLE_DENSE else None,
        embedding_shard=shard,
    )


class TestShardDeployment:
    def test_aggregates(self):
        deployment = make_deployment(replicas=3, memory=2e9)
        assert deployment.total_memory_bytes == pytest.approx(6e9)
        assert deployment.total_memory_gb == pytest.approx(6.0)
        assert deployment.total_cores == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            make_deployment(replicas=0)
        with pytest.raises(ValueError):
            make_deployment(role="weird")
        with pytest.raises(ValueError):
            make_deployment(role=ROLE_EMBEDDING)  # missing shard spec
        with pytest.raises(ValueError):
            ShardDeployment(
                name="x", role=ROLE_DENSE, replicas=1, per_replica_memory_bytes=0,
                cores=1, gpus=0, per_replica_qps=1.0, startup_s=0.0,
            )


class TestDeploymentPlan:
    def test_aggregates_and_lookup(self, small_elastic_plan):
        plan = small_elastic_plan
        assert plan.total_memory_gb == pytest.approx(plan.total_memory_bytes / 1e9)
        assert plan.total_replicas == sum(d.replicas for d in plan.deployments)
        assert len(plan.dense_deployments) == 1
        assert len(plan.embedding_deployments) == plan.sharding.num_embedding_shards
        assert plan.monolithic_deployments == []
        dense_name = plan.dense_deployments[0].name
        assert plan.get(dense_name).role == ROLE_DENSE
        with pytest.raises(KeyError):
            plan.get("nonexistent")

    def test_embedding_deployments_for_table_sorted(self, small_elastic_plan):
        shards = small_elastic_plan.embedding_deployments_for_table(0)
        indices = [d.embedding_shard.shard_index for d in shards]
        assert indices == sorted(indices)
        assert all(d.embedding_shard.table_id == 0 for d in shards)

    def test_model_wise_plan_shape(self, small_model_wise_plan):
        plan = small_model_wise_plan
        assert len(plan.deployments) == 1
        assert plan.deployments[0].role == ROLE_MONOLITHIC
        assert plan.embedding_deployments == []

    def test_summary(self, small_elastic_plan):
        summary = small_elastic_plan.summary()
        assert summary["total_memory_gb"] > 0
        assert summary["num_deployments"] == len(small_elastic_plan.deployments)

    def test_validation(self, small_config, cpu_cluster):
        deployment = make_deployment()
        with pytest.raises(ValueError):
            DeploymentPlan(
                name="p", strategy="elasticrec", workload=small_config, cluster=cpu_cluster,
                target_qps=0.0, deployments=(deployment,),
            )
        with pytest.raises(ValueError):
            DeploymentPlan(
                name="p", strategy="elasticrec", workload=small_config, cluster=cpu_cluster,
                target_qps=10.0, deployments=(),
            )
        with pytest.raises(ValueError):
            DeploymentPlan(
                name="p", strategy="elasticrec", workload=small_config, cluster=cpu_cluster,
                target_qps=10.0, deployments=(deployment, make_deployment()),
            )
