"""Tests for the cluster facade and its reconciliation loop."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.container import ContainerSpec
from repro.cluster.resources import ResourceRequest
from repro.hardware.specs import cpu_only_cluster


def small_spec(name="shard", cores=4, memory=1e9, startup=10.0, qps=20.0):
    return ContainerSpec(
        name=name,
        role="embedding",
        resources=ResourceRequest(cores=cores, memory_bytes=memory),
        startup_s=startup,
        per_replica_qps=qps,
    )


@pytest.fixture()
def cluster():
    return Cluster(cpu_only_cluster(num_nodes=2))


class TestClusterBasics:
    def test_nodes_built_from_spec(self, cluster):
        assert len(cluster.nodes) == 2
        assert cluster.allocated_memory_gb == 0.0
        assert cluster.nodes_in_use() == 0

    def test_create_and_lookup_deployment(self, cluster):
        deployment = cluster.create_deployment(small_spec(), desired_replicas=2)
        assert cluster.deployment("shard") is deployment
        with pytest.raises(KeyError):
            cluster.deployment("missing")
        with pytest.raises(ValueError):
            cluster.create_deployment(small_spec(), desired_replicas=1)

    def test_add_plan_builds_all_deployments(self, small_elastic_plan):
        cluster = Cluster(small_elastic_plan.cluster)
        cluster.add_plan(small_elastic_plan)
        assert len(cluster.deployments) == len(small_elastic_plan.deployments)
        cluster.reconcile(0.0)
        assert cluster.allocated_memory_gb > 0

    def test_add_plan_initial_replicas_override(self, small_elastic_plan):
        cluster = Cluster(small_elastic_plan.cluster)
        cluster.add_plan(small_elastic_plan, initial_replicas=1)
        cluster.reconcile(0.0)
        for deployment in cluster.deployments:
            assert len(deployment.active_replicas) <= 1


class TestReconciliation:
    def test_grows_to_desired(self, cluster):
        deployment = cluster.create_deployment(small_spec(startup=5.0), desired_replicas=3)
        cluster.reconcile(0.0)
        assert len(deployment.active_replicas) == 3
        assert all(not c.is_ready for c in deployment.active_replicas)
        cluster.reconcile(5.0)
        assert len(deployment.ready_replicas) == 3

    def test_shrinks_when_desired_drops(self, cluster):
        deployment = cluster.create_deployment(small_spec(startup=0.0), desired_replicas=4)
        cluster.reconcile(0.0)
        deployment.desired_replicas = 1
        cluster.reconcile(10.0)
        assert len(deployment.active_replicas) == 1
        # Resources of evicted replicas are released back to the nodes.
        assert cluster.allocated_memory_gb == pytest.approx(1.0)

    def test_unschedulable_replicas_stay_pending(self, cluster):
        spec = small_spec(name="huge", cores=60)
        deployment = cluster.create_deployment(spec, desired_replicas=5)
        cluster.reconcile(0.0)
        # Only two 60-core containers fit on two 64-core nodes.
        assert len(deployment.active_replicas) == 2
        assert len(cluster.pending_containers) == 3

    def test_nodes_in_use(self, cluster):
        cluster.create_deployment(small_spec(cores=40), desired_replicas=2)
        cluster.reconcile(0.0)
        assert cluster.nodes_in_use() == 2

    def test_memory_accounting_counts_starting_replicas(self, cluster):
        cluster.create_deployment(small_spec(memory=2e9, startup=100.0), desired_replicas=2)
        cluster.reconcile(0.0)
        # Still starting (not ready) but memory is already allocated.
        assert cluster.allocated_memory_gb == pytest.approx(4.0)


class TestFaultHandling:
    """Drain, cordon and single-replica failure at the cluster layer."""

    def test_node_accessor_by_index_and_name(self, cluster):
        node = cluster.node(0)
        assert cluster.node(node.name) is node
        with pytest.raises(KeyError):
            cluster.node(99)
        with pytest.raises(KeyError):
            cluster.node("nonexistent")

    def test_cordon_and_evict_node(self, cluster):
        # Best-fit packing puts both small replicas on one node; drain it.
        deployment = cluster.create_deployment(small_spec(cores=16), desired_replicas=2)
        cluster.reconcile(0.0)
        victim_node = cluster.node(deployment.active_replicas[0].node_name)
        before = {c.name for c in victim_node.containers}
        victim_node.cordon()
        evicted = cluster.evict_node(victim_node.name, 5.0)
        assert set(evicted) == before and evicted
        assert not victim_node.schedulable
        assert not victim_node.containers
        # The next reconcile re-creates the replicas on the other node only.
        cluster.reconcile(6.0)
        assert len(deployment.active_replicas) == 2
        assert all(c.node_name != victim_node.name for c in deployment.active_replicas)

    def test_uncordon_reopens_the_node(self, cluster):
        cluster.node(0).cordon()
        assert not cluster.node(0).schedulable
        cluster.uncordon_node(0)
        assert cluster.node(0).schedulable

    def test_cordoned_node_rejects_direct_placement(self, cluster):
        from repro.cluster.container import Container

        cluster.node(0).cordon()
        with pytest.raises(ValueError, match="cordoned"):
            cluster.node(0).place(Container(spec=small_spec()), 0.0)

    def test_fail_replica_releases_resources_and_reconcile_replaces(self, cluster):
        deployment = cluster.create_deployment(small_spec(), desired_replicas=1)
        cluster.reconcile(0.0)
        container = deployment.active_replicas[0]
        free_before = cluster.node(container.node_name).free.cores
        assert cluster.fail_replica(container.name, 1.0)
        assert cluster.node(container.node_name).free.cores > free_before
        assert not deployment.active_replicas
        cluster.reconcile(2.0)
        assert len(deployment.active_replicas) == 1

    def test_fail_replica_unknown_name_is_a_noop(self, cluster):
        assert not cluster.fail_replica("ghost-1", 0.0)
