"""Tests for the end-to-end serving simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import ModelWisePlanner
from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving.engine import ServingEngine
from repro.serving.traffic import TrafficPattern


@pytest.fixture(scope="module")
def sim_cluster():
    return cpu_only_cluster(num_nodes=4)


@pytest.fixture(scope="module")
def sim_config():
    return microbenchmark(num_tables=2)


@pytest.fixture(scope="module")
def elastic_plan(sim_cluster, sim_config):
    return ElasticRecPlanner(sim_cluster).plan(sim_config, target_qps=30.0)


@pytest.fixture(scope="module")
def baseline_plan(sim_cluster, sim_config):
    return ModelWisePlanner(sim_cluster).plan(sim_config, target_qps=30.0)


class TestSteadyState:
    def test_achieves_target_when_provisioned(self, elastic_plan):
        pattern = TrafficPattern.constant(25.0, duration_s=240.0)
        result = ServingEngine(elastic_plan, seed=0, autoscale=False).run(pattern)
        # Steady-state throughput tracks the offered load.
        assert np.mean(result.achieved_qps[4:]) == pytest.approx(25.0, rel=0.1)
        assert result.tracker.num_samples == pytest.approx(25 * 240, rel=0.1)
        assert result.sla_violation_fraction() < 0.05

    def test_latency_includes_rpc_overhead(self, elastic_plan, sim_cluster):
        pattern = TrafficPattern.constant(5.0, duration_s=120.0)
        result = ServingEngine(elastic_plan, seed=0, autoscale=False).run(pattern)
        # Even unloaded, latency >= dense + sparse + RPC overhead (~100+ ms).
        assert result.mean_latency_ms > 31.0

    def test_monolithic_plan_single_queue(self, baseline_plan):
        pattern = TrafficPattern.constant(20.0, duration_s=120.0)
        result = ServingEngine(baseline_plan, seed=0, autoscale=False).run(pattern)
        assert result.strategy == "model-wise"
        assert np.mean(result.achieved_qps[2:]) == pytest.approx(20.0, rel=0.15)

    def test_memory_matches_plan_when_not_autoscaling(self, elastic_plan):
        pattern = TrafficPattern.constant(10.0, duration_s=60.0)
        result = ServingEngine(elastic_plan, seed=0, autoscale=False).run(pattern)
        assert result.memory_gb[-1] == pytest.approx(elastic_plan.total_memory_gb, rel=0.01)

    def test_overload_blows_up_latency(self, elastic_plan):
        pattern = TrafficPattern.constant(120.0, duration_s=120.0)
        simulator = ServingEngine(elastic_plan, seed=0, autoscale=False)
        result = simulator.run(pattern)
        assert result.sla_violation_fraction() > 0.3

    def test_summary_keys(self, elastic_plan):
        pattern = TrafficPattern.constant(10.0, duration_s=60.0)
        result = ServingEngine(elastic_plan, seed=0, autoscale=False).run(pattern)
        summary = result.summary()
        assert set(summary) == {
            "peak_memory_gb",
            "mean_latency_ms",
            "p95_latency_ms",
            "sla_violation_fraction",
            "total_queries",
        }


class TestAutoscaling:
    def test_scales_out_when_traffic_grows(self, elastic_plan):
        pattern = TrafficPattern.from_steps([(0, 20), (120, 60)], duration_s=360)
        result = ServingEngine(elastic_plan, seed=1).run(pattern)
        # Memory grows once the traffic step hits.
        assert result.memory_gb[-1] > result.memory_gb[0]
        # And the higher load is eventually served.
        assert np.mean(result.achieved_qps[-4:]) == pytest.approx(60.0, rel=0.15)

    def test_scales_down_after_traffic_drops(self, elastic_plan):
        pattern = TrafficPattern.from_steps([(0, 60), (180, 10)], duration_s=600)
        result = ServingEngine(elastic_plan, seed=1).run(pattern)
        assert result.memory_gb[-1] < result.peak_memory_gb

    def test_replica_counts_recorded_per_deployment(self, elastic_plan):
        pattern = TrafficPattern.constant(20.0, duration_s=60.0)
        result = ServingEngine(elastic_plan, seed=0).run(pattern)
        assert set(result.replica_counts) == {d.name for d in elastic_plan.deployments}
        for series in result.replica_counts.values():
            assert series.shape == result.sample_times.shape

    def test_warm_start_serves_from_time_zero(self, elastic_plan):
        pattern = TrafficPattern.constant(20.0, duration_s=60.0)
        result = ServingEngine(elastic_plan, seed=0, warm_start=True).run(pattern)
        assert result.achieved_qps[0] > 0

    def test_cold_start_delays_service(self, baseline_plan):
        pattern = TrafficPattern.constant(20.0, duration_s=300.0)
        cold = ServingEngine(baseline_plan, seed=0, warm_start=False).run(pattern)
        warm = ServingEngine(baseline_plan, seed=0, warm_start=True).run(pattern)
        # The cold-started monolith must show worse early latency.
        assert cold.overall_p95_latency_ms >= warm.overall_p95_latency_ms

    def test_invalid_sample_interval(self, elastic_plan):
        with pytest.raises(ValueError):
            ServingEngine(elastic_plan, sample_interval_s=0.0)
