"""Tests for deployments and the autoscaler."""

from __future__ import annotations

import pytest

from repro.cluster.autoscaler import HorizontalPodAutoscaler
from repro.cluster.container import Container, ContainerSpec
from repro.cluster.deployment import Deployment
from repro.cluster.metrics import MetricsRegistry
from repro.cluster.resources import ResourceRequest
from repro.core.hpa_policy import build_hpa_target


def make_spec(name="shard", qps=20.0):
    return ContainerSpec(
        name=name,
        role="embedding",
        resources=ResourceRequest(cores=2, memory_bytes=1e9),
        startup_s=5.0,
        per_replica_qps=qps,
    )


def make_deployment(name="shard", hpa=None, desired=2, min_replicas=1, max_replicas=16):
    return Deployment(
        make_spec(name),
        desired_replicas=desired,
        hpa=hpa,
        min_replicas=min_replicas,
        max_replicas=max_replicas,
    )


def ready_container(spec, now=0.0):
    container = Container(spec=spec)
    container.mark_scheduled("node-0", now=now)
    container.ready_at = now
    container.maybe_become_ready(now)
    return container


class TestDeployment:
    def test_replica_classification(self):
        deployment = make_deployment()
        running = ready_container(deployment.spec)
        starting = Container(spec=deployment.spec)
        starting.mark_scheduled("node-0", now=0.0)
        pending = Container(spec=deployment.spec)
        deployment.replicas = [running, starting, pending]
        assert deployment.ready_replicas == [running]
        assert deployment.active_replicas == [running, starting]
        assert deployment.pending_replicas == [pending]
        assert deployment.allocated_memory_bytes == pytest.approx(2e9)

    def test_desired_replicas_clamped(self):
        deployment = make_deployment(desired=2, max_replicas=4)
        deployment.desired_replicas = 100
        assert deployment.desired_replicas == 4
        deployment.desired_replicas = 0
        assert deployment.desired_replicas == 1

    def test_observed_metric_throughput(self):
        hpa = build_hpa_target("sparse", shard_max_qps=18.0)
        deployment = make_deployment(hpa=hpa)
        deployment.replicas = [ready_container(deployment.spec) for _ in range(2)]
        metrics = MetricsRegistry()
        metrics.record(f"{deployment.name}/queries", 300.0, timestamp=15.0)
        metrics.record(f"{deployment.name}/queries", 300.0, timestamp=30.0)
        observed = deployment.observed_metric(metrics, now=30.0, window_s=30.0)
        assert observed == pytest.approx(600.0 / 30.0 / 2)

    def test_observed_metric_latency(self):
        hpa = build_hpa_target("dense", sla_s=0.4)
        deployment = make_deployment(hpa=hpa)
        metrics = MetricsRegistry()
        metrics.record(f"{deployment.name}/latency_s", 0.2, timestamp=10.0)
        metrics.record(f"{deployment.name}/latency_s", 0.3, timestamp=20.0)
        observed = deployment.observed_metric(metrics, now=20.0, window_s=30.0)
        assert observed == pytest.approx(0.295)

    def test_observed_metric_none_without_signal(self):
        hpa = build_hpa_target("sparse", shard_max_qps=18.0)
        deployment = make_deployment(hpa=hpa)
        assert deployment.observed_metric(MetricsRegistry(), now=30.0, window_s=30.0) is None
        assert make_deployment(hpa=None).observed_metric(MetricsRegistry(), 30.0, 30.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            Deployment(make_spec(), desired_replicas=0)
        with pytest.raises(ValueError):
            Deployment(make_spec(), desired_replicas=1, min_replicas=5, max_replicas=2)


class TestAutoscaler:
    def _deployment_with_traffic(
        self, per_replica_rate, target_qps, replicas=2, min_replicas=1, p95_load=None
    ):
        """A deployment of ``replicas`` ready replicas with one window of traffic.

        By default the deployment has a throughput target of ``target_qps``.
        With ``p95_load`` it has the dense shard's latency target instead,
        and the window's p95 latency is ``p95_load`` times that target.
        """
        if p95_load is None:
            hpa = build_hpa_target("sparse", shard_max_qps=target_qps)
        else:
            hpa = build_hpa_target("dense", sla_s=0.4)
        deployment = make_deployment(hpa=hpa, desired=replicas, min_replicas=min_replicas)
        deployment.replicas = [ready_container(deployment.spec) for _ in range(replicas)]
        metrics = MetricsRegistry()
        total = per_replica_rate * replicas * 30.0
        metrics.record(f"{deployment.name}/queries", total, timestamp=60.0)
        if p95_load is not None:
            latency = p95_load * hpa.target_value
            metrics.record(f"{deployment.name}/latency_s", latency, timestamp=60.0)
        return deployment, metrics

    def test_scale_up_when_overloaded(self):
        deployment, metrics = self._deployment_with_traffic(per_replica_rate=30.0, target_qps=15.0)
        autoscaler = HorizontalPodAutoscaler()
        decisions = autoscaler.evaluate([deployment], metrics, now=60.0)
        assert decisions[0].desired_replicas == 4
        assert decisions[0].changed

    @pytest.mark.parametrize(
        "replicas, load, p95_load, expected",
        [(4, 2.0, None, 8), (2, 1.0, 2.0, 4), (4, 1.0, None, 4), (2, 1.0, 1.0, 2)],
        ids=["throughput-4-to-8", "dense-p95-2-to-4", "throughput-holds", "dense-p95-holds"],
    )
    def test_scale_by_observed_over_target(self, replicas, load, p95_load, expected):
        """``ceil(current * observed / target)``: double at 2x, hold at 1x."""
        deployment, metrics = self._deployment_with_traffic(
            per_replica_rate=15.0 * load, target_qps=15.0, replicas=replicas, p95_load=p95_load
        )
        decisions = HorizontalPodAutoscaler().evaluate([deployment], metrics, now=60.0)
        assert decisions[0].observed is not None
        assert decisions[0].desired_replicas == expected
        assert deployment.desired_replicas == expected

    @pytest.mark.parametrize("min_replicas", [1, 3])
    def test_quiet_traffic_scales_to_the_floor(self, min_replicas):
        deployment, metrics = self._deployment_with_traffic(
            per_replica_rate=0.0, target_qps=15.0, replicas=4, min_replicas=min_replicas
        )
        autoscaler = HorizontalPodAutoscaler(downscale_stabilization_s=0.0)
        decisions = autoscaler.evaluate([deployment], metrics, now=60.0)
        assert decisions[0].observed == 0.0
        assert decisions[0].desired_replicas == min_replicas
        assert deployment.desired_replicas == min_replicas

    def test_hold_within_tolerance(self):
        deployment, metrics = self._deployment_with_traffic(per_replica_rate=15.2, target_qps=15.0)
        autoscaler = HorizontalPodAutoscaler(tolerance=0.05)
        decisions = autoscaler.evaluate([deployment], metrics, now=60.0)
        assert decisions[0].desired_replicas == 2

    def test_scale_down_is_stabilized(self):
        autoscaler = HorizontalPodAutoscaler(downscale_stabilization_s=300.0)
        deployment, metrics = self._deployment_with_traffic(per_replica_rate=30.0, target_qps=15.0)
        autoscaler.evaluate([deployment], metrics, now=60.0)  # recommends 4
        # Traffic drops sharply shortly after.
        metrics.record(f"{deployment.name}/queries", 30.0, timestamp=90.0)
        decisions = autoscaler.evaluate([deployment], metrics, now=90.0)
        # Stabilisation keeps the recent maximum recommendation.
        assert decisions[0].desired_replicas >= 2

    def test_no_evaluation_before_window_fills(self):
        deployment, metrics = self._deployment_with_traffic(per_replica_rate=30.0, target_qps=15.0)
        autoscaler = HorizontalPodAutoscaler(metric_window_s=120.0)
        decisions = autoscaler.evaluate([deployment], metrics, now=60.0)
        assert decisions[0].observed is None
        assert decisions[0].desired_replicas == deployment.desired_replicas

    def test_should_evaluate_interval(self):
        autoscaler = HorizontalPodAutoscaler(evaluation_interval_s=15.0)
        assert autoscaler.should_evaluate(0.0)
        autoscaler.evaluate([], MetricsRegistry(), now=0.0)
        assert not autoscaler.should_evaluate(10.0)
        assert autoscaler.should_evaluate(15.0)

    def test_deployments_without_hpa_are_skipped(self):
        deployment = make_deployment(hpa=None)
        decisions = HorizontalPodAutoscaler().evaluate([deployment], MetricsRegistry(), now=60.0)
        assert decisions == []

    def test_validation(self):
        with pytest.raises(ValueError):
            HorizontalPodAutoscaler(evaluation_interval_s=0)
        with pytest.raises(ValueError):
            HorizontalPodAutoscaler(tolerance=1.5)
