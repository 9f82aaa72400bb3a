"""Tests for the fault-injection subsystem (models, script syntax, engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving.engine import MultiTenantEngine, ServingEngine, TenantSpec
from repro.serving.faults import (
    FAULT_SCENARIOS,
    FaultModel,
    NodeDrain,
    RandomCrashes,
    ReplicaCrash,
    StragglerSlowdown,
    TransientDegradation,
    fault_scenario_names,
    make_fault_model,
    parse_fault_script,
)
from repro.serving.replica_server import ReplicaServer
from repro.serving.routing import make_routing_policy
from repro.serving.spec import SpecError
from repro.serving.traffic import TrafficPattern
from test_routing import _pick


@pytest.fixture(scope="module")
def plan():
    cluster = cpu_only_cluster(num_nodes=4)
    return ElasticRecPlanner(cluster).plan(microbenchmark(num_tables=2), target_qps=30.0)


@pytest.fixture(scope="module")
def pattern():
    return TrafficPattern.constant(25.0, duration_s=240.0)


class TestFaultModel:
    def test_empty_model_resolves_to_none(self):
        assert make_fault_model(FaultModel(), 600.0) is None
        assert make_fault_model("none", 600.0) is None
        assert make_fault_model(None, 600.0) is None

    def test_timeline_sorts_and_clips_scripted_events(self):
        model = FaultModel(
            events=[ReplicaCrash(at_s=500.0), ReplicaCrash(at_s=100.0),
                    ReplicaCrash(at_s=900.0)]
        )
        timeline = model.timeline(600.0, np.random.default_rng(0))
        assert [at for at, _ in timeline] == [100.0, 500.0]

    def test_stochastic_timeline_is_seed_deterministic(self):
        model = FaultModel(processes=[RandomCrashes(rate_per_min=2.0)])
        first = model.timeline(600.0, np.random.default_rng(7))
        second = model.timeline(600.0, np.random.default_rng(7))
        other = model.timeline(600.0, np.random.default_rng(8))
        assert first == second
        assert first != other
        assert all(0.0 <= at < 600.0 for at, _ in first)

    def test_every_registered_scenario_builds(self):
        for name in fault_scenario_names():
            model = FAULT_SCENARIOS[name](600.0)
            assert model.name == name
            assert (name == "none") == model.is_empty

    def test_huge_finite_crash_rate_is_rejected(self):
        # Each gap would be ~6e-299 s: the timeline could never reach the
        # run end.  The window is clipped to the run, so a late or short
        # process with the same rate may still be fine.
        with pytest.raises(SpecError, match="crashes over the run"):
            make_fault_model("crashes@0:rate=1e300", 600.0)
        with pytest.raises(SpecError, match="crashes over the run"):
            make_fault_model(FaultModel(processes=[RandomCrashes(rate_per_min=1e7)]), 600.0)
        assert make_fault_model("crashes@700:rate=1e300", 600.0) is not None
        assert make_fault_model("crashes@0+60:rate=1e5", 600.0) is not None

    def test_unknown_scenario_lists_choices(self):
        with pytest.raises(ValueError, match="crash-storm"):
            make_fault_model("tsunami", 600.0)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ReplicaCrash(at_s=-1.0)
        with pytest.raises(ValueError, match="policy"):
            ReplicaCrash(at_s=0.0, policy="retry")
        with pytest.raises(ValueError):
            StragglerSlowdown(at_s=0.0, factor=0.0)
        with pytest.raises(ValueError):
            NodeDrain(at_s=0.0, duration_s=-1.0)
        with pytest.raises(ValueError):
            RandomCrashes(rate_per_min=0.0)
        with pytest.raises(ValueError, match="finite"):
            RandomCrashes(rate_per_min=float("inf"))
        with pytest.raises(ValueError):
            TransientDegradation(at_s=0.0, duration_s=0.0)


class TestFaultScript:
    def test_full_script_round_trip(self):
        model = parse_fault_script(
            "crash@120:deployment=emb,replica=0,policy=drop;"
            "drain@300+60:node=1;"
            "straggler@200+90:factor=4;"
            "degrade@400+30:factor=2,deployment=dense;"
            "crashes@0+500:rate=0.5"
        )
        kinds = [type(e).__name__ for e in model.events]
        assert kinds == [
            "ReplicaCrash", "NodeDrain", "StragglerSlowdown", "TransientDegradation"
        ]
        crash = model.events[0]
        assert (crash.deployment, crash.replica, crash.policy) == ("emb", 0, "drop")
        drain = model.events[1]
        assert (drain.node, drain.duration_s, drain.grace_s) == (1, 60.0, 10.0)
        process = model.processes[0]
        assert (process.rate_per_min, process.start_s, process.end_s) == (0.5, 0.0, 500.0)

    @pytest.mark.parametrize(
        "script",
        ["", "crash", "crash@", "crash@abc", "flood@10", "crash@10:policy=retry",
         "crash@10:bogus=1", "crashes@0", "straggler@10+0:factor=4",
         "crash@10+5", "crashes@0+0:rate=2", "drain@10:grace=-1"],
    )
    def test_malformed_scripts_raise_one_line_errors(self, script):
        with pytest.raises(SpecError) as excinfo:
            parse_fault_script(script)
        assert "\n" not in str(excinfo.value)


class TestCrashInjection:
    def test_crash_loses_capacity_then_recovers(self, plan, pattern):
        engine = ServingEngine(plan, seed=0, faults="crash@60")
        result = engine.run(pattern)
        assert result.faults == "script"
        assert result.faults_injected == 1
        # The replacement replica is re-created by a later reconcile, so the
        # final replica counts recover to at least the initial ones.
        for series in result.replica_counts.values():
            assert series[-1] >= series[0]

    def test_drop_policy_drops_inflight_queries(self, plan, pattern):
        result = ServingEngine(
            plan, seed=0, faults="crash@60:policy=drop;crash@120:policy=drop"
        ).run(pattern)
        total = result.tracker.num_samples
        assert result.dropped_queries + result.rejected_queries > 0
        assert (
            result.completed_queries + result.rejected_queries + result.dropped_queries
            == total
        )
        assert result.availability_fraction < 1.0

    def test_requeue_policy_requeues_onto_survivors(self, plan, pattern):
        # Double the replicas so every deployment keeps survivors: displaced
        # queries must be re-queued, not dropped.
        result = ServingEngine(
            plan,
            seed=0,
            initial_replicas=2,
            autoscale=False,
            faults="crash@60;crash@90;crash@120",
        ).run(pattern)
        assert result.requeued_queries > 0
        assert result.dropped_queries == 0
        assert sum(int(s.sum()) for s in result.requeues.values()) == result.requeued_queries

    def test_crash_against_named_deployment(self, plan, pattern):
        target = plan.deployments[0].name
        engine = ServingEngine(plan, seed=0, faults=f"crash@60:deployment={target}")
        result = engine.run(pattern)
        assert result.faults_injected == 1
        # Only the targeted deployment's availability can dip.
        for name, series in result.availability.items():
            if target not in name:
                assert np.all(series == 1.0)

    def test_faulty_run_is_seed_deterministic(self, plan, pattern):
        digests = [
            ServingEngine(plan, seed=3, faults="crash-storm").run(pattern).digest()
            for _ in range(2)
        ]
        assert digests[0] == digests[1]

    def test_different_seeds_give_different_fault_outcomes(self, plan, pattern):
        first = ServingEngine(plan, seed=0, faults="crash-storm").run(pattern)
        second = ServingEngine(plan, seed=1, faults="crash-storm").run(pattern)
        assert first.digest() != second.digest()


class TestFaultySweepDeterminism:
    def test_sweep_with_faults_is_identical_serial_and_parallel(self):
        # Victim selection must not depend on process-global state (e.g. the
        # container-id counter embedded in replica names): a faulty sweep is
        # byte-identical for any worker count, like a healthy one.
        from repro.experiments.sweeps import SweepConfig, run_sweep

        config = SweepConfig(
            workload="RM1", num_tables=2, num_nodes=4,
            base_qps=8.0, peak_qps=24.0, duration_s=90.0, seed=13,
            faults="crash-storm",
        )
        grid = dict(
            scenarios=["constant", "flash-crowd"],
            routings=["least-work", "recovery-aware"],
            replica_budgets=[4],
        )
        serial = run_sweep(config, workers=1, **grid)
        parallel = run_sweep(config, workers=4, **grid)
        assert serial.rows == parallel.rows
        assert serial.digest() == parallel.digest()


class TestNoFaultBitExactness:
    """A disabled fault layer must leave the engine bit-exact."""

    def test_none_matches_fault_unaware_run(self, plan, pattern):
        plain = ServingEngine(plan, autoscale=False, seed=0).run(pattern)
        disabled = ServingEngine(plan, autoscale=False, seed=0, faults="none").run(pattern)
        assert plain.digest() == disabled.digest()
        assert plain.faults == disabled.faults == "none"

    def test_out_of_window_faults_match_no_fault_run(self, plan, pattern):
        # Every scripted event lands past the run end, so the timeline is
        # empty and the engine must never even seed the fault RNG.
        plain = ServingEngine(plan, autoscale=False, seed=0).run(pattern)
        late = ServingEngine(
            plan, autoscale=False, seed=0, faults="crash@99999"
        ).run(pattern)
        assert plain.digest() == late.digest()


class TestNodeDrain:
    def test_drain_cordons_evicts_and_uncordons(self, plan, pattern):
        engine = ServingEngine(plan, seed=0, faults="drain@60+120:node=0")
        drained = engine.run(pattern)
        assert engine.cluster.node(0).schedulable  # uncordoned after the window
        assert drained.faults_injected >= 1

    def test_permanent_drain_keeps_node_cordoned(self, plan, pattern):
        engine = ServingEngine(plan, seed=0, faults="drain@60:node=0")
        engine.run(pattern)
        node = engine.cluster.node(0)
        assert not node.schedulable
        assert not node.containers  # nothing may be re-placed on it

    def test_drain_grace_period_drains_before_evicting(self, plan, pattern):
        # During the grace window the node's replicas refuse new traffic but
        # keep serving their queues; the grace length must therefore change
        # the run (a zero-grace drain kills queued work immediately).
        graceful = ServingEngine(
            plan, seed=0, faults="drain@60+120:node=0,grace=30"
        ).run(pattern)
        instant = ServingEngine(
            plan, seed=0, faults="drain@60+120:node=0,grace=0"
        ).run(pattern)
        assert graceful.digest() != instant.digest()

    def test_drain_settles_inflight_of_faultless_tenants(self, plan):
        # Tenant b configures no faults of its own, but tenant a's drain
        # evicts b's replicas: b's in-flight queries must be settled (the
        # drop policy turns them into recorded drops), not silently treated
        # as if the dead replica had finished its queue.
        heavy = TrafficPattern.constant(30.0, duration_s=180.0)
        tenants = [
            TenantSpec(
                "a", plan, heavy, seed=0,
                faults="drain@60:node=0,policy=drop,grace=0;"
                       "drain@61:node=1,policy=drop,grace=0",
            ),
            TenantSpec("b", plan, heavy, seed=1, autoscale=False),
        ]
        engine = MultiTenantEngine(tenants, cluster_spec=cpu_only_cluster(num_nodes=2))
        result = engine.run()
        b = result.tenant("b")
        assert b.dropped_queries + b.rejected_queries > 0
        assert b.availability_fraction < 1.0

    def test_drain_aimed_past_the_pool_misfires_instead_of_crashing(self, plan, pattern):
        engine = ServingEngine(plan, seed=0, faults="drain@60:node=99")
        result = engine.run(pattern)
        assert result.faults_injected == 0

    def test_drain_hits_every_tenant_on_the_node(self, plan):
        tenants = [
            TenantSpec(
                "a", plan, TrafficPattern.constant(10.0, 180.0), seed=0,
                faults="drain@60:node=0",
            ),
            TenantSpec("b", plan, TrafficPattern.constant(10.0, 180.0), seed=1),
        ]
        engine = MultiTenantEngine(tenants, cluster_spec=cpu_only_cluster(num_nodes=2))
        drained_node = engine.cluster.node(0)
        victims = {c.name for c in drained_node.containers}
        result = engine.run()
        assert any("b/" in name for name in victims), "both tenants share node 0"
        assert result.tenant("b").faults_injected >= 1


class TestSlowdowns:
    def test_straggler_inflates_latency_within_window(self, plan, pattern):
        healthy = ServingEngine(plan, autoscale=False, seed=0).run(pattern)
        slowed = ServingEngine(
            plan, autoscale=False, seed=0, faults="straggler@30+120:factor=8"
        ).run(pattern)
        assert slowed.overall_p95_latency_ms > healthy.overall_p95_latency_ms
        # Same arrivals either way: slowdowns never touch the traffic RNG.
        assert slowed.tracker.num_samples == healthy.tracker.num_samples

    def test_overlapping_windows_do_not_cancel_each_other(self, plan):
        # A short inner window ending inside a longer outer window must not
        # erase the outer one: the long straggler alone and the composed
        # script must still be slowed after the inner window ends.
        pattern = TrafficPattern.constant(10.0, duration_s=300.0)
        healthy = ServingEngine(plan, autoscale=False, seed=0).run(pattern)
        outer_only = ServingEngine(
            plan, autoscale=False, seed=0,
            faults="straggler@30+240:factor=6,replica=0",
        ).run(pattern)
        composed = ServingEngine(
            plan, autoscale=False, seed=0,
            faults="straggler@30+240:factor=6,replica=0;"
                   "straggler@60+30:factor=2,replica=0",
        ).run(pattern)
        # After the inner window ends (t >= 90) the outer factor still holds,
        # so the composed run's late p95 stays at the outer-only level above
        # the healthy baseline (cancellation would snap it back to healthy).
        late = healthy.sample_times >= 150
        assert outer_only.p95_latency_ms[late].max() > healthy.p95_latency_ms[late].max()
        assert composed.p95_latency_ms[late].max() >= outer_only.p95_latency_ms[late].max()

    def test_degradation_recovers_after_window(self, plan):
        # Light load so the degradation-window backlog fully drains: by the
        # end of the run the p95 must be back at the healthy level.
        long_pattern = TrafficPattern.constant(8.0, duration_s=300.0)
        degraded = ServingEngine(
            plan, autoscale=False, seed=0, faults="degrade@45+60:factor=6"
        ).run(long_pattern)
        healthy = ServingEngine(plan, autoscale=False, seed=0).run(long_pattern)
        mid = (degraded.sample_times >= 60) & (degraded.sample_times <= 105)
        assert degraded.p95_latency_ms[mid].max() > healthy.p95_latency_ms[mid].max()
        assert degraded.p95_latency_ms[-1] == pytest.approx(
            healthy.p95_latency_ms[-1], rel=0.2
        )


class TestRoutingUnderFaults:
    def test_policies_never_pick_failed_or_draining_replicas(self):
        alive = ReplicaServer("alive", ready_at=0.0)
        dead = ReplicaServer("dead", ready_at=0.0)
        dead.fail()
        draining = ReplicaServer("draining", ready_at=0.0)
        draining.start_drain()
        for name in ("least-work", "round-robin", "power-of-two", "ready-only",
                     "least-outstanding", "cost-weighted", "recovery-aware"):
            policy = make_routing_policy(name)
            policy.reset(np.random.default_rng(0))
            for _ in range(4):
                choice = _pick(policy, "d", [dead, alive, draining], now=10.0)
                assert choice is alive, name

    def test_all_dead_means_rejection(self):
        dead = ReplicaServer("dead", ready_at=0.0)
        dead.fail()
        for name in ("least-work", "recovery-aware", "ready-only"):
            policy = make_routing_policy(name)
            assert _pick(policy, "d", [dead], now=10.0) is None

    def test_recovery_aware_deprioritises_cold_replicas(self):
        # Warm replica with a 25 s backlog vs. a just-recovered idle one.
        warm = ReplicaServer("warm", ready_at=0.0)
        warm.submit(95.0, 25.0)  # busy until t = 120
        cold = ReplicaServer("cold", ready_at=95.0)
        policy = make_routing_policy("recovery-aware")
        # Inside the warm-up window the cold replica's penalty (4 queries x
        # 10 s x 55/60 remaining ~ 36.7 s on top of drain time 95) outweighs
        # the warm replica's 25 s backlog...
        assert _pick(policy, "d", [cold, warm], now=100.0, cost=(10.0, 1.0)) is warm
        # ...after the window the penalty is gone and the idle (previously
        # cold) replica wins on queue state alone (95 < 120).
        assert _pick(policy, "d", [cold, warm], now=160.0, cost=(10.0, 1.0)) is cold

    def test_recovery_aware_penalty_is_bounded_by_real_work(self):
        # The cold penalty is a few service times, not an absolute quarantine:
        # a warm replica with a long queue still overflows onto the cold one.
        warm = ReplicaServer("warm", ready_at=0.0)
        for i in range(100):
            warm.submit(float(i), 2.0)  # ~100 s of backlog
        cold = ReplicaServer("cold", ready_at=95.0)
        policy = make_routing_policy("recovery-aware")
        assert _pick(policy, "d", [warm, cold], now=100.0, cost=(2.0, 1.0)) is cold


class TestAutoscalerCapacityLoss:
    def test_hpa_reacts_to_crash_induced_capacity_loss(self, plan):
        # Crash storm under autoscaling: the run must stay deterministic and
        # the HPA must re-grow the crashed deployments (final >= initial).
        pattern = TrafficPattern.constant(25.0, duration_s=300.0)
        result = ServingEngine(
            plan, seed=0, faults="crashes@0:rate=1.0"
        ).run(pattern)
        assert result.faults_injected > 0
        for series in result.replica_counts.values():
            assert series[-1] >= 1
