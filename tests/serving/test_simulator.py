"""Tests for the end-to-end serving simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import ModelWisePlanner
from repro.core.planner import ElasticRecPlanner
from repro.hardware.perf_model import PerfModel
from repro.hardware.specs import cpu_gpu_cluster, cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving.engine import ServingEngine
from repro.serving.routing import routing_policy_names
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

    def test_latency_knee_past_the_planned_rate(self, elastic_plan, sim_cluster):
        # Latency grows with offered load: inside the SLA up to the 30 QPS
        # the plan was sized for, far past it once the shards saturate.
        p95_ms = []
        for rate in (5.0, 20.0, 30.0, 60.0):
            pattern = TrafficPattern.constant(rate, duration_s=120.0)
            result = ServingEngine(elastic_plan, seed=0, autoscale=False).run(pattern)
            p95_ms.append(result.summary()["p95_latency_ms"])
        assert p95_ms == sorted(p95_ms)
        assert p95_ms[2] < sim_cluster.sla_ms < p95_ms[3]

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


class TestRPCOverhead:
    """Every sharded query pays ``PerfModel.rpc_overhead_s()`` once, on top.

    The overhead is added after the slowest shard answers, so it moves no
    routing or queueing decision: zeroing it must shift each recorded
    latency by exactly the calibrated 31 ms (CPU) or 60 ms (CPU-GPU).
    """

    @staticmethod
    def _latency_shift(plan, monkeypatch, rate=8.0, **options):
        pattern = TrafficPattern.constant(rate, duration_s=120.0)
        charged = ServingEngine(plan, seed=0, autoscale=False, **options).run(pattern)
        with monkeypatch.context() as patch:
            patch.setattr(PerfModel, "rpc_overhead_s", lambda self: 0.0)
            free = ServingEngine(plan, seed=0, autoscale=False, **options).run(pattern)
        assert charged.tracker.num_samples == free.tracker.num_samples > 0
        return charged, charged.tracker.latencies_s - free.tracker.latencies_s

    @pytest.mark.parametrize("routing", routing_policy_names())
    def test_every_routing_policy_charges_it_once(self, elastic_plan, monkeypatch, routing):
        _, shift = self._latency_shift(elastic_plan, monkeypatch, routing=routing)
        assert shift == pytest.approx(np.full(shift.size, 0.031), abs=1e-9)

    def test_gpu_cluster_charges_60_ms(self, sim_config, monkeypatch):
        plan = ElasticRecPlanner(cpu_gpu_cluster(num_nodes=4)).plan(sim_config, target_qps=30.0)
        _, shift = self._latency_shift(plan, monkeypatch)
        assert shift == pytest.approx(np.full(shift.size, 0.060), abs=1e-9)

    @pytest.mark.parametrize(
        "options",
        [
            {"faults": "crash-storm", "routing": "recovery-aware"},
            {"max_batch": 4, "batch_window_s": 0.01},
            {"cost_model": "skewed", "cache_mb": 64.0},
        ],
        ids=["requeued-by-crashes", "batched", "skewed-cached"],
    )
    def test_every_serving_path_charges_it_once(self, elastic_plan, monkeypatch, options):
        result, shift = self._latency_shift(elastic_plan, monkeypatch, rate=25.0, **options)
        if "faults" in options:
            assert result.requeued_queries > 0
        assert shift == pytest.approx(np.full(shift.size, 0.031), abs=1e-9)

    def test_monolithic_plan_pays_no_rpc(self, baseline_plan, monkeypatch):
        _, shift = self._latency_shift(baseline_plan, monkeypatch)
        assert not shift.any()


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
