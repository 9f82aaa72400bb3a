"""Tests for the discrete-event serving engine."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.baseline import ModelWisePlanner
from repro.core.plan import ROLE_EMBEDDING
from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark, rm1
from repro.serving.engine import (
    EventKind,
    MultiTenantEngine,
    ServingEngine,
    TenantSpec,
)
from repro.serving.traffic import TrafficPattern

# summary() of the pre-engine (seed) simulator for the reference run below,
# captured at the commit that introduced the engine.  The engine must keep
# reproducing it exactly: same seed + same plan => byte-identical summaries.
SEED_MICRO_SUMMARY = {
    "peak_memory_gb": 10.710795916,
    "mean_latency_ms": 112.74081316455475,
    "p95_latency_ms": 156.50787061395022,
    "sla_violation_fraction": 0.0,
    "total_queries": 6031.0,
}


@pytest.fixture(scope="module")
def plan():
    cluster = cpu_only_cluster(num_nodes=4)
    return ElasticRecPlanner(cluster).plan(microbenchmark(num_tables=2), target_qps=30.0)


@pytest.fixture(scope="module")
def pattern():
    return TrafficPattern.constant(25.0, duration_s=240.0)


class TestEventKinds:
    def test_same_timestamp_priorities(self):
        # COMPLETION is never pushed and keeps the first rank; the
        # control-plane tick, the reconcile pass and the sample point run
        # after traffic, in order.
        assert (
            EventKind.COMPLETION
            < EventKind.ARRIVAL
            < EventKind.AUTOSCALE
            < EventKind.RECONCILE
            < EventKind.SAMPLE
        )


class TestDeterminism:
    def test_engine_reproduces_seed_simulator_summary(self, plan, pattern):
        result = ServingEngine(plan, autoscale=False, seed=0).run(pattern)
        assert repr(result.summary()) == repr(SEED_MICRO_SUMMARY)

    def test_repeated_runs_identical(self, plan, pattern):
        first = ServingEngine(plan, autoscale=False, seed=7).run(pattern)
        second = ServingEngine(plan, autoscale=False, seed=7).run(pattern)
        assert repr(first.summary()) == repr(second.summary())

    @pytest.mark.parametrize("autoscale", [True, False])
    def test_an_engine_runs_once(self, plan, pattern, autoscale):
        # Queues, RNG streams and metric series carry on from the first run,
        # so a second run is refused with a one-line error.
        engine = ServingEngine(plan, autoscale=autoscale, seed=0)
        engine.run(pattern)
        with pytest.raises(RuntimeError, match="an engine runs once; build a new one"):
            engine.run(pattern)
        fleet = MultiTenantEngine(
            [TenantSpec("only", plan, pattern, autoscale=autoscale, seed=0)]
        )
        fleet.run()
        with pytest.raises(RuntimeError, match="an engine runs once; build a new one"):
            fleet.run()

    def test_power_of_two_deterministic_per_seed(self, plan, pattern):
        first = ServingEngine(plan, routing="power-of-two", autoscale=False, seed=5).run(pattern)
        second = ServingEngine(plan, routing="power-of-two", autoscale=False, seed=5).run(pattern)
        assert repr(first.summary()) == repr(second.summary())


class TestEngineBehaviour:
    def test_autoscaling_still_tracks_load(self, plan):
        steps = TrafficPattern.from_steps([(0, 20), (120, 60)], duration_s=360)
        result = ServingEngine(plan, seed=1).run(steps)
        assert result.memory_gb[-1] > result.memory_gb[0]
        assert np.mean(result.achieved_qps[-4:]) == pytest.approx(60.0, rel=0.15)

    def test_least_outstanding_without_completion_events(self, plan, pattern):
        # In-flight attempts are counted from the completion times that
        # submit returned, so no event kind exists for completions.
        kinds = set()
        result = ServingEngine(
            plan, routing="least-outstanding", autoscale=False, seed=0
        ).run(pattern, on_event=lambda now, kind: kinds.add(kind))
        assert EventKind.ARRIVAL in kinds
        assert EventKind.COMPLETION not in kinds
        assert np.mean(result.achieved_qps[4:]) == pytest.approx(25.0, rel=0.1)
        assert result.sla_violation_fraction() < 0.05

    def test_ready_only_drops_queries_while_cold(self, plan):
        short = TrafficPattern.constant(20.0, duration_s=120.0)
        cold = ServingEngine(
            plan, routing="ready-only", warm_start=False, autoscale=False, seed=0
        ).run(short)
        warm = ServingEngine(
            plan, routing="ready-only", warm_start=True, autoscale=False, seed=0
        ).run(short)
        # Dropped queries are charged 2x SLA, so the cold start must show more
        # violations than the warm one.
        assert cold.sla_violation_fraction() > warm.sla_violation_fraction()

    def test_routing_recorded_in_result(self, plan, pattern):
        result = ServingEngine(plan, routing="round-robin", autoscale=False, seed=0).run(pattern)
        assert result.routing == "round-robin"

    def test_invalid_sample_interval(self, plan):
        with pytest.raises(ValueError):
            ServingEngine(plan, sample_interval_s=0.0)

    def test_target_series_uses_clamped_rate(self, plan):
        # Duration that is not a multiple of the sample interval: the last
        # boundary overshoots duration_s and reads the clamped final rate.
        odd = TrafficPattern.constant(10.0, duration_s=100.0)
        result = ServingEngine(plan, autoscale=False, sample_interval_s=15.0, seed=0).run(odd)
        assert result.sample_times[-1] > odd.duration_s
        assert result.target_qps[-1] == 10.0


class TestQueryCosts:
    def test_homogeneous_compat_kwargs_reproduce_seed_summary(self, plan, pattern):
        # The compatibility contract: homogeneous cost model + batch size one
        # is bit-identical with the pre-cost-model engine.
        result = ServingEngine(
            plan, autoscale=False, seed=0, cost_model="homogeneous", max_batch=1
        ).run(pattern)
        assert repr(result.summary()) == repr(SEED_MICRO_SUMMARY)
        assert result.cost_model == "homogeneous"
        assert result.max_batch == 1

    def test_skewed_costs_change_the_tail_not_the_arrivals(self, plan, pattern):
        hom = ServingEngine(plan, autoscale=False, seed=0).run(pattern)
        skew = ServingEngine(plan, autoscale=False, seed=0, cost_model="skewed").run(pattern)
        # The arrival process is untouched (dedicated cost seed stream)...
        assert skew.tracker.num_samples == hom.tracker.num_samples
        # ...but per-query service times now spread around the planner mean.
        assert skew.overall_p95_latency_ms != hom.overall_p95_latency_ms
        assert skew.cost_model == "skewed"

    def test_skewed_runs_deterministic_per_seed(self, plan, pattern):
        runs = [
            ServingEngine(plan, autoscale=False, seed=4, cost_model="skewed").run(pattern)
            for _ in range(2)
        ]
        assert repr(runs[0].summary()) == repr(runs[1].summary())

    def test_cost_weighted_routing_sustains_load(self, plan, pattern):
        result = ServingEngine(
            plan,
            routing="cost-weighted",
            autoscale=False,
            seed=0,
            cost_model="skewed",
            max_batch=4,
        ).run(pattern)
        assert result.routing == "cost-weighted"
        assert np.mean(result.achieved_qps[4:]) == pytest.approx(25.0, rel=0.1)

    def test_unknown_cost_model_rejected(self, plan):
        with pytest.raises(ValueError, match="cost model"):
            ServingEngine(plan, cost_model="zipfian")


class TestPerQueryMemory:
    """``begin_run`` keeps each query's costs as float64 columns only: no
    whole-run Python lists and no pre-priced warm-cache columns."""

    @pytest.fixture(scope="class")
    def rm1_plan(self):
        cluster = cpu_only_cluster(num_nodes=32)
        return ElasticRecPlanner(cluster).plan(rm1().scaled_tables(4), 220.0)

    @pytest.mark.parametrize(
        "options", [{"cache_mb": 64.0}, {"slo": "p95@1.5"}], ids=["cached", "slo"]
    )
    def test_retained_bytes_per_arrival(self, rm1_plan, options):
        runtime = ServingEngine(rm1_plan, cost_model="skewed", **options)._runtimes[0]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            runtime.begin_run(TrafficPattern.constant(100.0, duration_s=500.0))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Arrivals plus four float64 cost columns are 40 bytes per query.
        assert retained / runtime.arrivals.size <= 64


class TestBatching:
    def test_batch_occupancy_recorded_per_deployment(self, plan, pattern):
        result = ServingEngine(plan, autoscale=False, seed=0, max_batch=4).run(pattern)
        assert set(result.batch_occupancy) == {d.name for d in plan.deployments}
        for series in result.batch_occupancy.values():
            assert series.shape == result.sample_times.shape
        assert result.max_batch == 4

    def test_unbatched_occupancy_never_exceeds_one(self, plan, pattern):
        result = ServingEngine(plan, autoscale=False, seed=0).run(pattern)
        for series in result.batch_occupancy.values():
            assert np.all(series <= 1.0)

    def test_batching_absorbs_overload(self, plan):
        heavy = TrafficPattern.constant(40.0, duration_s=180.0)
        unbatched = ServingEngine(plan, autoscale=False, seed=0).run(heavy)
        batched = ServingEngine(plan, autoscale=False, seed=0, max_batch=8).run(heavy)
        # Sub-linear batch scaling buys real capacity under pressure...
        assert batched.sla_violation_fraction() < unbatched.sla_violation_fraction()
        # ...because backlogged queries actually coalesce.
        assert max(series.max() for series in batched.batch_occupancy.values()) > 1.5

    def test_invalid_max_batch_rejected(self, plan):
        with pytest.raises(ValueError):
            ServingEngine(plan, max_batch=0)
        with pytest.raises(ValueError):
            ServingEngine(plan, batch_window_s=-0.1)


class TestRejectedQueryMetrics:
    def test_rejections_are_visible_to_the_autoscaler(self, plan):
        # A cold ready-only cluster drops every query until startup finishes;
        # those rejections must land in the interval metrics the HPA reads.
        short = TrafficPattern.constant(20.0, duration_s=120.0)
        engine = ServingEngine(
            plan, routing="ready-only", warm_start=False, autoscale=False, seed=0
        )
        engine.run(short)
        metrics = engine.cluster.metrics
        for deployment in plan.deployments:
            samples = metrics.samples(f"{deployment.name}/queries")
            assert samples and samples[0].value > 0
        # The dropped queries carry their 2x-SLA penalty into the latency
        # metric, so the overload is impossible for the HPA to miss.
        dense = next(d for d in plan.deployments if d.role == "dense")
        latency = metrics.samples(f"{dense.name}/latency_s")
        assert latency and latency[0].value >= 2.0 * plan.cluster.sla_s

    @pytest.mark.parametrize("strategy", ["elasticrec", "model-wise"])
    def test_latency_metric_is_the_interval_end_to_end_p95(self, plan, pattern, strategy):
        # Embedding deployments scale on throughput and record no latency;
        # the dense (or monolithic) one records the p95 of the end-to-end
        # latencies of the queries that arrived in the interval, recomputed
        # here from the tracker (fault-free and retry-free, so each query
        # has one latency).
        if strategy == "model-wise":
            plan = ModelWisePlanner(plan.cluster).plan(plan.workload, plan.target_qps)
        engine = ServingEngine(plan, seed=0)
        result = engine.run(pattern)
        metrics = engine.cluster.metrics
        for deployment in plan.deployments:
            if deployment.role == ROLE_EMBEDDING:
                assert not metrics.samples(f"{deployment.name}/latency_s")
        (scaled,) = [d for d in plan.deployments if d.role != ROLE_EMBEDDING]
        samples = metrics.samples(f"{scaled.name}/latency_s")
        assert len(samples) == result.sample_times.size
        latencies = result.tracker.latencies_s
        arrivals = pattern.arrivals(np.random.default_rng(0))[: latencies.size]
        for sample in samples:
            interval = (arrivals > sample.timestamp - 15.0) & (arrivals <= sample.timestamp)
            assert sample.value == float(np.percentile(latencies[interval], 95))


class TestVectorisedSeries:
    def test_achieved_qps_counts_window_completions(self, plan, pattern):
        result = ServingEngine(plan, autoscale=False, seed=0).run(pattern)
        completions = np.sort(result.tracker.completion_times)
        for index in (0, result.sample_times.size // 2, result.sample_times.size - 1):
            end = result.sample_times[index]
            start = end - 15.0
            count = np.searchsorted(completions, end) - np.searchsorted(completions, start)
            assert result.achieved_qps[index] == pytest.approx(count / 15.0)

    def test_p95_series_matches_masked_reference(self, plan, pattern):
        result = ServingEngine(plan, autoscale=False, seed=0).run(pattern)
        completions = result.tracker.completion_times
        latencies = result.tracker.latencies_s * 1000.0
        window = 30.0
        for index in (1, result.sample_times.size // 2, result.sample_times.size - 1):
            end = result.sample_times[index]
            mask = (completions > end - window) & (completions <= end)
            expected = float(np.percentile(latencies[mask], 95)) if mask.any() else 0.0
            assert result.p95_latency_ms[index] == pytest.approx(expected)
