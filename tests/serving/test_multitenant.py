"""Tests for the multi-tenant cluster simulation subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving.engine import EventKind, MultiTenantEngine, ServingEngine, TenantSpec
from repro.serving.scenarios import build_scenario
from repro.serving.sharding import run_sharded
from repro.serving.traffic import TrafficPattern


@pytest.fixture(scope="module")
def plan():
    cluster = cpu_only_cluster(num_nodes=4)
    return ElasticRecPlanner(cluster).plan(microbenchmark(num_tables=2), target_qps=30.0)


@pytest.fixture(scope="module")
def pattern():
    return TrafficPattern.constant(25.0, duration_s=240.0)


def three_tenants(plan, duration_s=240.0):
    return [
        TenantSpec(
            "alpha", plan, build_scenario("diurnal", 10, 30, duration_s), seed=0
        ),
        TenantSpec(
            "beta",
            plan,
            build_scenario("flash-crowd", 8, 30, duration_s, seed=1),
            routing="power-of-two",
            seed=1,
        ),
        TenantSpec(
            "gamma",
            plan,
            build_scenario("constant", 12, 12, duration_s),
            routing="least-outstanding",
            seed=2,
            sla_s=0.3,
        ),
    ]


class TestSingleTenantParity:
    def test_reproduces_serving_engine_bit_for_bit(self, plan, pattern):
        single = ServingEngine(plan, seed=3).run(pattern)
        multi = MultiTenantEngine([TenantSpec("only", plan, pattern, seed=3)]).run()
        result = multi.tenant("only")
        assert repr(result.summary()) == repr(single.summary())
        for name in ("sample_times", "target_qps", "achieved_qps", "memory_gb",
                     "p95_latency_ms"):
            assert getattr(result, name).tobytes() == getattr(single, name).tobytes()
        assert result.replica_counts.keys() == single.replica_counts.keys()
        for key in result.replica_counts:
            assert result.replica_counts[key].tobytes() == single.replica_counts[key].tobytes()

    def test_parity_holds_for_every_routing_policy(self, plan, pattern):
        for routing in ("round-robin", "power-of-two", "least-outstanding"):
            engine = ServingEngine(plan, routing=routing, autoscale=False, seed=5)
            single = engine.run(pattern)
            multi = MultiTenantEngine(
                [TenantSpec("only", plan, pattern, routing=routing, autoscale=False, seed=5)]
            ).run()
            assert repr(multi.tenant("only").summary()) == repr(single.summary()), routing


class TestMultiTenantRun:
    @pytest.fixture(scope="class")
    def result(self, plan):
        return MultiTenantEngine(
            three_tenants(plan), cluster_spec=cpu_only_cluster(num_nodes=3)
        ).run()

    def test_every_tenant_reports_series_and_summary(self, result):
        assert set(result.tenants) == {"alpha", "beta", "gamma"}
        for tenant in result.tenants.values():
            assert tenant.tracker.num_samples > 0
            assert tenant.sample_times.size == tenant.achieved_qps.size
            assert all(np.isfinite(v) for v in tenant.summary().values())

    def test_deployments_are_namespaced_per_tenant(self, result):
        for name, tenant in result.tenants.items():
            assert all(key.startswith(f"{name}/") for key in tenant.replica_counts)
            assert set(tenant.utilization) == set(tenant.replica_counts)

    def test_sla_report_covers_every_tenant(self, result):
        rows = result.sla_report()
        assert [row["tenant"] for row in rows] == ["alpha", "beta", "gamma"]
        gamma = rows[2]
        assert gamma["sla_ms"] == pytest.approx(300.0)
        assert 0.0 <= gamma["sla_violation_fraction"] <= 1.0
        assert result.worst_tenant() in result.tenants

    def test_cluster_series_tracks_pool_pressure(self, result):
        series = result.cluster_series
        assert series.sample_times.size > 0
        assert series.memory_gb.size == series.sample_times.size
        assert 0.0 <= series.mean_memory_utilization <= 1.0
        assert series.peak_memory_gb >= max(
            t.peak_memory_gb for t in result.tenants.values()
        ) - 1e-9
        assert (np.diff(series.sample_times) > 0).all()

    def test_summary_is_deterministic_for_seed(self, plan, result):
        again = MultiTenantEngine(
            three_tenants(plan), cluster_spec=cpu_only_cluster(num_nodes=3)
        ).run()
        assert repr(again.summary()) == repr(result.summary())


class TestFleetDrains:
    """A drain runs to the next control event, not to another tenant's arrival."""

    def test_one_arrival_event_per_tenant_per_control_event(self, plan):
        # Four tenants with their own seeds interleave their arrivals on
        # four routing policies; a crash of d's dense replica requeues its
        # in-flight queries.
        pattern = build_scenario("flash-crowd", 8.0, 24.0, 120.0, seed=5)
        tenants = [
            TenantSpec("a", plan, pattern, routing="least-work", seed=11),
            TenantSpec("b", plan, pattern, routing="power-of-two", seed=12),
            TenantSpec("c", plan, pattern, routing="round-robin", seed=13),
            TenantSpec(
                "d", plan, pattern, routing="least-outstanding",
                faults="crash@60:deployment=dense,policy=requeue", seed=14,
            ),
        ]
        arrivals = 0
        control_times = set()
        kinds = set()
        last = -np.inf

        def observe(now, kind):
            nonlocal arrivals, last
            assert now >= last
            last = now
            kinds.add(kind)
            if kind == EventKind.ARRIVAL:
                arrivals += 1
            else:
                control_times.add(now)

        result = MultiTenantEngine(tenants).run(on_event=observe)
        assert EventKind.FAULT in kinds and len(control_times) >= 8
        assert result.tenant("d").requeued_queries > 0, "the crash requeued nothing"
        queries = result.total_queries
        assert queries > 20 * len(tenants) * len(control_times)
        # A tenant's drain ends only at a non-ARRIVAL event, so each tenant
        # starts at most one drain per distinct control-event time, plus one.
        assert arrivals <= len(tenants) * (len(control_times) + 1), (
            f"{arrivals} ARRIVAL events for {queries} queries and "
            f"{len(control_times)} control-event times"
        )


class TestSharedPoolContention:
    def test_tight_pool_queues_pending_placements(self, plan):
        tenants = three_tenants(plan)
        tight = MultiTenantEngine(tenants, cluster_spec=cpu_only_cluster(num_nodes=1)).run()
        roomy = MultiTenantEngine(tenants, cluster_spec=cpu_only_cluster(num_nodes=8)).run()
        assert (
            tight.cluster_series.peak_pending_placements
            >= roomy.cluster_series.peak_pending_placements
        )
        assert tight.cluster_series.peak_pending_placements > 0

    def test_contended_tenants_violate_more(self, plan):
        tenants = three_tenants(plan)
        tight = MultiTenantEngine(tenants, cluster_spec=cpu_only_cluster(num_nodes=1)).run()
        roomy = MultiTenantEngine(tenants, cluster_spec=cpu_only_cluster(num_nodes=8)).run()
        tight_violations = sum(t.sla_violation_count() for t in tight.tenants.values())
        roomy_violations = sum(t.sla_violation_count() for t in roomy.tenants.values())
        assert tight_violations >= roomy_violations

    def test_replica_budget_caps_scaling(self, plan):
        duration = TrafficPattern.constant(40.0, duration_s=300.0)
        capped = MultiTenantEngine(
            [TenantSpec("t", plan, duration, seed=0, max_replicas=1)]
        ).run()
        free = MultiTenantEngine(
            [TenantSpec("t", plan, duration, seed=0, max_replicas=64)]
        ).run()
        capped_peak = max(v.max() for v in capped.tenant("t").replica_counts.values())
        free_peak = max(v.max() for v in free.tenant("t").replica_counts.values())
        assert capped_peak == 1
        assert free_peak > 1


class TestZeroTrafficTenant:
    def test_idle_tenant_coexists_with_a_busy_one(self, plan):
        tenants = [
            TenantSpec("busy", plan, TrafficPattern.constant(20.0, 180.0), seed=0),
            TenantSpec("idle", plan, TrafficPattern.constant(0.0, 180.0), seed=1),
        ]
        result = MultiTenantEngine(tenants).run()
        idle = result.tenant("idle")
        assert idle.tracker.num_samples == 0
        assert idle.summary()["total_queries"] == 0.0
        assert idle.mean_latency_ms == 0.0
        assert result.tenant("busy").tracker.num_samples > 0


class TestHeterogeneousCosts:
    def test_tenants_may_mix_cost_models_and_batching(self, plan):
        tenants = [
            TenantSpec("flat", plan, TrafficPattern.constant(15.0, 180.0), seed=0),
            TenantSpec(
                "spiky",
                plan,
                TrafficPattern.constant(15.0, 180.0),
                seed=0,
                cost_model="skewed",
                max_batch=4,
            ),
        ]
        result = MultiTenantEngine(tenants).run()
        flat, spiky = result.tenant("flat"), result.tenant("spiky")
        assert flat.cost_model == "homogeneous" and flat.max_batch == 1
        assert spiky.cost_model == "skewed" and spiky.max_batch == 4
        # Same seed, same arrival process per tenant; different service costs.
        assert flat.tracker.num_samples == spiky.tracker.num_samples
        assert flat.overall_p95_latency_ms != spiky.overall_p95_latency_ms

    def test_skewed_single_tenant_run_is_deterministic(self, plan, pattern):
        def run():
            return MultiTenantEngine(
                [TenantSpec("t", plan, pattern, seed=2, cost_model="skewed")]
            ).run()

        assert repr(run().summary()) == repr(run().summary())


class TestValidation:
    def test_rejects_empty_tenant_list(self):
        with pytest.raises(ValueError):
            MultiTenantEngine([])

    def test_rejects_duplicate_tenant_names(self, plan, pattern):
        tenants = [
            TenantSpec("same", plan, pattern, seed=0),
            TenantSpec("same", plan, pattern, seed=1),
        ]
        with pytest.raises(ValueError):
            MultiTenantEngine(tenants)

    def test_tenant_spec_validation(self, plan, pattern):
        with pytest.raises(ValueError, match="needs a name"):
            TenantSpec("", plan, pattern)
        # ServingEngine options are TenantSpec fields, so both engines
        # reject the same input with the same message.
        rows = [
            (dict(sla_s=0.0), "sla_s must be positive"),
            (dict(sample_interval_s=0.0), "sample_interval_s must be positive"),
            (dict(max_replicas=0), "max_replicas must be positive"),
            (dict(max_batch=0), "max_batch must be at least 1"),
            (dict(batch_window_s=-1.0), "batch_window_s must be non-negative"),
            (dict(cache_mb=-1.0), "cache_mb must be non-negative"),
            (dict(cache_mb=float("nan")), "cache_mb must be non-negative and finite"),
            (dict(cache_mb=float("inf")), "cache_mb must be non-negative and finite"),
            (dict(faults="tsunami"), "unknown fault scenario"),
            (dict(slo="p95@nan"), "malformed slo spec"),
            (dict(seed=-1), "seed must be non-negative"),
            (dict(routing="random-walk"), "unknown routing policy"),
            (dict(cost_model="zipfian"), "unknown cost model"),
            # Checked from the cost-model name, before any model is built.
            (dict(cache_mb=64.0), "cache needs per-query gather splits"),
            (dict(drift="linear@10+60:to=0.1"), "drift needs per-query gather"),
        ]
        for options, message in rows:
            with pytest.raises(ValueError, match=message):
                TenantSpec("t", plan, pattern, **options)
            with pytest.raises(ValueError, match=message):
                ServingEngine(plan, **options)

    def test_replan_needs_an_elasticrec_plan(self, pattern):
        from repro.core.baseline import ModelWisePlanner

        cluster = cpu_only_cluster(num_nodes=4)
        monolithic = ModelWisePlanner(cluster).plan(microbenchmark(num_tables=2), 30.0)
        with pytest.raises(ValueError, match="needs an elasticrec plan"):
            TenantSpec("t", monolithic, pattern, replan="sla@1.2")

    def test_tenant_without_pattern_is_rejected_at_run(self, plan):
        tenants = [TenantSpec("idle", plan)]
        with pytest.raises(ValueError, match="tenant 'idle' has no traffic pattern"):
            MultiTenantEngine(tenants).run()
        with pytest.raises(ValueError, match="tenant 'idle' has no traffic pattern"):
            run_sharded(tenants)
