"""Tests for the fault-injection subsystem (models, script syntax, engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planner import ElasticRecPlanner
from repro.experiments import watchdog as watchdog_experiment
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving import engine as engine_module
from repro.serving.engine import (
    MultiTenantEngine,
    ServingEngine,
    TenantSpec,
    _TenantRuntime,
)
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
from repro.serving.traffic import TrafficPattern, paper_dynamic_pattern
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


_ARMED = ("shed", "deadline", "fallback")


def _kernel_and_per_query(monkeypatch, run):
    """``run()``'s per-tenant results as-is and with the drain kernel off.

    The as-is run must reach :meth:`_TenantRuntime.serve_chunk`, or the
    comparison would hold trivially.  Each kernel call is returned as
    ``(begin, stop, armed, top)``: its arrival range, the watchdog actions
    armed (a subset of ``_ARMED``) and the heap top's time.
    """
    chunks = []
    serve_chunk = _TenantRuntime.serve_chunk

    def counted(self, begin, stop):
        armed = {flag for flag in _ARMED if getattr(self, f"{flag}_armed")}
        chunks.append((begin, stop, armed, self._heap[0][0]))
        return serve_chunk(self, begin, stop)

    with monkeypatch.context() as patch:
        patch.setattr(_TenantRuntime, "serve_chunk", counted)
        kernel = run()
    assert chunks, "the drain kernel never ran"
    with monkeypatch.context() as patch:
        patch.setattr(_TenantRuntime, "chunk_eligible", lambda self: False)
        per_query = run()
    return kernel, per_query, chunks


def _assert_same_outcome(kernel, per_query):
    assert kernel.keys() == per_query.keys()
    for name, result in kernel.items():
        other = per_query[name]
        assert result.digest() == other.digest(), name
        assert result.requeued_queries == other.requeued_queries, name
        assert result.dropped_queries == other.dropped_queries, name
        assert result.rejected_queries == other.rejected_queries, name


class TestDrainKernelUnderFaults:
    """The drain kernel serves faulty and recovery-aware tenants exactly as
    the per-query path does: same digest and same failure accounting."""

    @pytest.mark.parametrize(
        ("options", "settled"),
        [
            pytest.param(
                dict(routing="recovery-aware", faults="crash@60;crash@120"),
                None,
                id="recovery-aware",
            ),
            pytest.param(
                dict(
                    routing="recovery-aware",
                    cost_model="skewed",
                    cache_mb=64.0,
                    faults="crash@60;crash@120",
                ),
                None,
                id="recovery-aware-cached",
            ),
            pytest.param(
                dict(
                    initial_replicas=2,
                    autoscale=False,
                    faults="crashes@30+150:rate=4,policy=requeue",
                ),
                "requeued_queries",
                id="crash-storm-requeue",
            ),
            pytest.param(
                dict(faults="crashes@30+150:rate=4,policy=drop"),
                "dropped_queries",
                id="crash-storm-drop",
            ),
            pytest.param(
                dict(autoscale=False, faults="degrade@60+60:factor=2.0"),
                None,
                id="degrade",
            ),
            pytest.param(
                dict(autoscale=False, faults="straggler@60+60:factor=3"),
                None,
                id="straggler",
            ),
        ],
    )
    def test_single_tenant_matches_per_query_path(
        self, monkeypatch, plan, pattern, options, settled
    ):
        def run():
            result = ServingEngine(plan, seed=0, **options).run(pattern)
            return {plan.name: result}

        kernel, per_query, _ = _kernel_and_per_query(monkeypatch, run)
        _assert_same_outcome(kernel, per_query)
        result = kernel[plan.name]
        assert result.faults_injected > 0
        if settled is not None:
            # A kernel that loses in-flight attempts only shows if the
            # crashes do find attempts to settle.
            assert getattr(result, settled) > 0

    def test_two_tenant_node_drain_matches_per_query_path(self, monkeypatch, plan):
        # Tenant a's drain evicts b's replicas too.  b carries most of the
        # traffic, so its drains are long and the kernel serves (and must
        # register) most of the attempts the eviction settles.
        light = TrafficPattern.constant(2.0, duration_s=180.0)
        heavy = TrafficPattern.constant(30.0, duration_s=180.0)

        def run():
            tenants = [
                TenantSpec(
                    "a", plan, light, seed=0,
                    faults="drain@60+60:node=1,policy=drop,grace=0",
                ),
                TenantSpec("b", plan, heavy, seed=1, autoscale=False),
            ]
            engine = MultiTenantEngine(tenants, cluster_spec=cpu_only_cluster(num_nodes=2))
            return engine.run().tenants

        kernel, per_query, _ = _kernel_and_per_query(monkeypatch, run)
        _assert_same_outcome(kernel, per_query)
        assert kernel["b"].faults_injected > 0
        assert kernel["b"].dropped_queries > 0

    def test_arrival_at_the_warm_up_boundary(self, monkeypatch, plan, pattern):
        # After a crash, recovery-aware routing penalises the replacement
        # until its ready time plus the warm-up window.  Put an arrival
        # exactly there (its penalty is exactly zero) and check the kernel
        # serves it as the per-query path does.
        options = dict(
            routing="recovery-aware", initial_replicas=2, autoscale=False,
            faults="crash@60",
        )
        probe = ServingEngine(plan, seed=0, **options)
        probe.run(pattern)
        runtime = probe._runtimes[0]
        rankings = [
            (lane.pool.refresh(), runtime.policy.least_work_ranking(lane.pool))
            for lane in runtime._lanes
        ]
        assert all(ranking[1] > 0 for _, ranking in rankings)
        boundary = max(pool.ready_threshold + ranking[0] for pool, ranking in rankings)
        assert 60.0 < boundary < pattern.duration_s
        arrivals = pattern.arrivals(np.random.default_rng(0))
        arrivals = np.sort(np.append(arrivals, boundary))
        query = int(np.searchsorted(arrivals, boundary))
        monkeypatch.setattr(TrafficPattern, "arrivals", lambda self, rng: arrivals.copy())

        def run():
            return {plan.name: ServingEngine(plan, seed=0, **options).run(pattern)}

        kernel, per_query, chunks = _kernel_and_per_query(monkeypatch, run)
        _assert_same_outcome(kernel, per_query)
        assert any(begin <= query < stop for begin, stop, *_ in chunks), (
            "the boundary arrival was not served by the kernel"
        )


#: The ``watchdog`` experiment's availability-first policy (no shedding,
#: 6x-SLA attempt timeout, 20x-SLA deadline) on a reduced incident: a 2x
#: brownout with a crash storm that drops in-flight queries.
_WATCHDOG_SLO = watchdog_experiment._SLO
_INCIDENT = "degrade@60+90:factor=2.0;crashes@60+120:rate=2.5,policy=drop"


def _watchdog_run(plan, qps, options, runtimes):
    """A ``run()`` for :func:`_kernel_and_per_query` that keeps each runtime."""
    pattern = TrafficPattern.constant(qps, duration_s=240.0)

    def run():
        engine = ServingEngine(plan, seed=0, autoscale=False, faults=_INCIDENT, **options)
        result = engine.run(pattern)
        runtimes.append(engine._runtimes[0])
        return {plan.name: result}

    return run


def _assert_same_watchdog_outcome(kernel, per_query, runtimes):
    _assert_same_outcome(kernel, per_query)
    for name, result in kernel.items():
        other = per_query[name]
        assert result.timeout_queries == other.timeout_queries, name
        assert result.retried_queries == other.retried_queries, name
        assert result.shed_queries == other.shed_queries, name
        assert result.watchdog_series.keys() == other.watchdog_series.keys()
        for key, series in result.watchdog_series.items():
            assert np.array_equal(series, other.watchdog_series[key]), key
    kernel_runtime, per_query_runtime = runtimes
    assert kernel_runtime.degraded_indices == per_query_runtime.degraded_indices


class TestDrainKernelUnderTheWatchdog:
    """Drains with shedding, deadlines or quality fallback armed go through
    the kernel, deadlines in windows of one attempt timeout, with the same
    digest, failure accounting and watchdog outcome as per-query serving."""

    @pytest.mark.parametrize(
        ("qps", "options", "armed", "nonzero"),
        [
            pytest.param(
                12.0,
                dict(routing="recovery-aware", slo=_WATCHDOG_SLO),
                {"deadline", "fallback"},
                (),
                id="watchdog-experiment-policy",
            ),
            pytest.param(
                12.0,
                dict(routing="recovery-aware", slo=_WATCHDOG_SLO.replace("timeout=6", "timeout=1")),
                {"deadline"},
                ("timeout_queries", "retried_queries"),
                id="timeout-1",
            ),
            pytest.param(
                11.0,
                dict(
                    routing="recovery-aware",
                    cost_model="skewed",
                    slo=_WATCHDOG_SLO.replace("timeout=6", "timeout=1"),
                ),
                {"fallback"},
                ("timeout_queries", "retried_queries"),
                id="skewed-fallback",
            ),
            pytest.param(
                12.0,
                dict(slo=_WATCHDOG_SLO.replace("shed=0.0", "shed=0.2")),
                {"shed"},
                ("shed_queries",),
                id="shed-0.2",
            ),
        ],
    )
    def test_matches_per_query_path(self, monkeypatch, plan, qps, options, armed, nonzero):
        runtimes = []
        kernel, per_query, chunks = _kernel_and_per_query(
            monkeypatch, _watchdog_run(plan, qps, options, runtimes)
        )
        _assert_same_watchdog_outcome(kernel, per_query, runtimes)
        assert any(armed <= flags for _, _, flags, _ in chunks), (
            f"the kernel never ran with {sorted(armed)} armed"
        )
        result = kernel[plan.name]
        for counter in nonzero:
            assert getattr(result, counter) > 0, counter
        if "fallback" in armed:
            # Counted per interval: a degraded query that later times out
            # leaves ``degraded_queries``.
            assert result.watchdog_series["degraded"].sum() > 0

    def test_arrival_at_the_end_of_a_deadline_window(self, monkeypatch, plan):
        # A deadline window takes the arrivals up to its first arrival plus
        # the attempt timeout, inclusive: an arrival exactly there still
        # ties ahead of any TIMEOUT the window pushes.  Insert one at the
        # end of a window whose drain runs past it, and check it closes
        # that window.
        options = dict(
            routing="recovery-aware", slo=_WATCHDOG_SLO.replace("timeout=6", "timeout=1")
        )
        probe = []
        _, _, chunks = _kernel_and_per_query(
            monkeypatch, _watchdog_run(plan, 12.0, options, probe)
        )
        runtime = probe[0]
        arrivals = runtime.arrivals
        begin, end_at = next(
            (begin, arrivals[begin] + runtime.attempt_timeout_s)
            for begin, _, flags, top in chunks
            if "deadline" in flags
            and top > arrivals[begin] + runtime.attempt_timeout_s
            and arrivals[begin] + runtime.attempt_timeout_s not in arrivals
        )
        arrivals = np.sort(np.append(arrivals, end_at))
        query = int(np.searchsorted(arrivals, end_at))
        monkeypatch.setattr(TrafficPattern, "arrivals", lambda self, rng: arrivals.copy())

        runtimes = []
        kernel, per_query, chunks = _kernel_and_per_query(
            monkeypatch, _watchdog_run(plan, 12.0, options, runtimes)
        )
        _assert_same_watchdog_outcome(kernel, per_query, runtimes)
        assert (begin, query + 1) in [(b, e) for b, e, flags, _ in chunks if "deadline" in flags], (
            "the arrival at the window's end did not close the window"
        )


def _registry(runtime):
    """The in-flight registry, each replica named by its creation order (a
    replica's name ends in a number that differs from run to run)."""
    names = sorted({name for _, name in runtime.inflight}, key=lambda n: int(n.rsplit("-", 1)[1]))
    order = {name: index for index, name in enumerate(names)}
    return {(lane, order[name]): entries for (lane, name), entries in runtime.inflight.items()}


def _lane(runtime, suffix):
    return next(lane for lane in runtime._lanes if lane.name.endswith(suffix))


class TestTwinLanes:
    """A lane whose drain-kernel inputs equal an earlier lane's in the same
    chunk takes that lane's outcome instead of a kernel call of its own.
    Every case compares with per-query serving (digest, failure accounting,
    in-flight registry, cache fills) and checks twins were served once."""

    @staticmethod
    def _compare(monkeypatch, run, runtimes):
        """Check ``run()`` against per-query serving; return its kernel calls.

        Each kernel call is returned as ``(first arrival, latest ready time,
        penalised)``, and each twin copy as the primary's call plus whether
        fallback was armed and the twin pool's cache state before the copy
        (``None`` if uncached, else whether it was warm).
        """
        calls, copies = [], []
        last = {}
        tenant = []
        serve_least_work = engine_module.serve_least_work
        copy_least_work = engine_module.copy_least_work
        serve_chunk = _TenantRuntime.serve_chunk

        def chunk(self, *args):
            tenant[:] = [self]
            return serve_chunk(self, *args)

        def counted(servers, ready, arrivals, *args):
            call = (arrivals[0], max(ready), args[-1] is not None)
            calls.append(call)
            last[id(servers)] = call
            return serve_least_work(servers, ready, arrivals, *args)

        def copied(primary, marks, twins):
            pool = next(lane.pool for lane in tenant[0]._lanes if lane.pool.servers is twins)
            warm = pool.cache_warm if pool.has_caches else None
            copies.append((*last[id(primary)], tenant[0].fallback_armed, warm))
            return copy_least_work(primary, marks, twins)

        monkeypatch.setattr(_TenantRuntime, "serve_chunk", chunk)
        monkeypatch.setattr(engine_module, "serve_least_work", counted)
        monkeypatch.setattr(engine_module, "copy_least_work", copied)
        kernel, per_query, chunks = _kernel_and_per_query(monkeypatch, run)
        _assert_same_outcome(kernel, per_query)
        kernel_runtime, per_query_runtime = runtimes
        assert _registry(kernel_runtime) == _registry(per_query_runtime)
        for lane, other in zip(kernel_runtime._lanes, per_query_runtime._lanes):
            assert lane.name == other.name
            assert lane.pool.fill_rows == other.pool.fill_rows, lane.name
            assert lane.pool.cache_warm == other.pool.cache_warm, lane.name
            for server, twin in zip(lane.pool.servers, other.pool.servers):
                assert server.busy_until == twin.busy_until, lane.name
                assert server.completed_queries == twin.completed_queries, lane.name
                assert server.completed_batches == twin.completed_batches, lane.name
                assert server.busy_seconds_between(-np.inf, np.inf) == (
                    twin.busy_seconds_between(-np.inf, np.inf)
                ), lane.name
        assert copies, "no lane was served as a twin"
        assert len(calls) < len(kernel_runtime._lanes) * len(chunks)
        return kernel, calls, copies, chunks

    @staticmethod
    def _run(plan, pattern, options, runtimes):
        def run():
            engine = ServingEngine(plan, seed=0, **options)
            result = engine.run(pattern)
            runtimes.append(engine._runtimes[0])
            return {plan.name: result}

        return run

    def test_identical_tables_with_the_hpa_and_pre_ready_joins(self, monkeypatch, plan):
        runtimes = []
        pattern = paper_dynamic_pattern(10.0, 60.0, 300.0)
        _, _, copies, _ = self._compare(
            monkeypatch, self._run(plan, pattern, {}, runtimes), runtimes
        )
        assert any(first < ready for first, ready, *_ in copies), (
            "no twin was served while a replica was still starting"
        )

    def test_cached_skewed_costs(self, monkeypatch, plan):
        runtimes = []
        pattern = paper_dynamic_pattern(10.0, 60.0, 300.0)
        options = dict(cost_model="skewed", cache_mb=4.0)
        kernel, _, copies, _ = self._compare(
            monkeypatch, self._run(plan, pattern, options, runtimes), runtimes
        )
        assert kernel[plan.name].cache_hit_rate
        warm = {copy[-1] for copy in copies}
        assert {True, False} <= warm, "twins never copied both filling and warm caches"

    def test_a_degraded_table_splits_its_twins(self, monkeypatch, plan, pattern):
        runtimes = []
        options = dict(autoscale=False, faults="degrade@60+60:factor=2.0,deployment=table1-")
        kernel, calls, _, _ = self._compare(
            monkeypatch, self._run(plan, pattern, options, runtimes), runtimes
        )
        assert kernel[plan.name].faults_injected > 0
        per_chunk = {}
        for first, *_ in calls:
            per_chunk[first] = per_chunk.get(first, 0) + 1
        roles = len({(lane.cost_bearing, lane.service_s) for lane in runtimes[0]._lanes})
        assert max(per_chunk.values()) > roles, "the degradation never split a twin"

    def test_a_requeued_crash_on_a_twin(self, monkeypatch, plan, pattern):
        runtimes = []
        options = dict(
            autoscale=False,
            initial_replicas=2,
            faults="crash@120:deployment=table1-shard0,replica=0,policy=requeue",
        )
        kernel, *_ = self._compare(
            monkeypatch, self._run(plan, pattern, options, runtimes), runtimes
        )
        assert kernel[plan.name].requeued_queries > 0

    def test_recovery_aware_penalties_under_fallback(self, monkeypatch, plan):
        # A brownout with the HPA on: fallback arms while scale-outs warm up
        # in both tables alike.
        runtimes = []
        pattern = TrafficPattern.constant(12.0, duration_s=240.0)
        options = dict(
            routing="recovery-aware",
            cost_model="skewed",
            faults="degrade@60+90:factor=2.0",
            slo=_WATCHDOG_SLO.replace("timeout=6", "timeout=1"),
        )
        kernel, _, copies, _ = self._compare(
            monkeypatch, self._run(plan, pattern, options, runtimes), runtimes
        )
        assert any(penalised and fallback for *_, penalised, fallback, _ in copies), (
            "no twin copied a penalised call under fallback"
        )
        assert kernel[plan.name].watchdog_series["degraded"].sum() > 0

    @staticmethod
    def _halve_fills(runtime):
        # Both shard-0 caches fill anew, table 1's at a lower fill.
        for lane, scale in (("table0-shard0", 0.5), ("table1-shard0", 0.25)):
            pool = _lane(runtime, lane).pool
            pool.fill_rows[:] = [pool.cache_capacity * scale] * pool.size
            pool.cache_warm = False

    @staticmethod
    def _forget_runs(runtime):
        # Table 1's shard-0 replicas drop their busy runs; drain times stay.
        for server in _lane(runtime, "table1-shard0").pool.servers:
            server.prune_runs(np.inf)

    @staticmethod
    def _split_service_time(runtime):
        # Equal degraded service times from unequal undegraded ones: the
        # cold penalties (priced undegraded) differ.
        first = _lane(runtime, "table0-shard0")
        second = _lane(runtime, "table1-shard0")
        second.service_s = first.service_s * 2.0
        runtime.degradations[first.name] = [2.0]

    @pytest.mark.parametrize(
        ("options", "edit", "window"),
        [
            pytest.param(
                dict(cost_model="skewed", cache_mb=4.0, autoscale=False),
                _halve_fills,
                (60.0, 90.0),
                id="fills",
            ),
            pytest.param(dict(autoscale=False), _forget_runs, (60.0, 90.0), id="busy-runs"),
            pytest.param(
                dict(routing="recovery-aware"),
                _split_service_time,
                # Past the second shard-0 replica's start, inside its warm-up.
                (120.0, 150.0),
                id="service-time",
            ),
        ],
    )
    def test_lanes_that_differ_in_one_kernel_input(self, plan, options, edit, window):
        """After a run, make two otherwise equal lanes differ in one kernel
        input, then serve the same arrivals through the kernel on one copy of
        the state and per query on another: the lanes must not twin."""
        runtimes = []
        for _ in range(2):
            engine = ServingEngine(plan, seed=0, **options)
            engine.run(paper_dynamic_pattern(10.0, 60.0, 300.0))
            runtime = engine._runtimes[0]
            edit.__func__(runtime)
            runtimes.append(runtime)
        kernel, per_query = runtimes
        begin, stop = np.searchsorted(kernel.arrivals, window).tolist()
        assert kernel.chunk_eligible()
        kernel.serve_chunk(begin, stop)
        for index in range(begin, stop):
            per_query.serve_query(per_query.arrival_at(index), index)
        assert kernel.interval_latencies == per_query.interval_latencies
        for lane, other in zip(kernel._lanes, per_query._lanes):
            assert (lane.count, lane.hit_sum, lane.gather_sum) == (
                other.count, other.hit_sum, other.gather_sum
            ), lane.name
            assert lane.pool.fill_rows == other.pool.fill_rows, lane.name
            assert lane.pool.cache_warm == other.pool.cache_warm, lane.name
            for server, twin in zip(lane.pool.servers, other.pool.servers):
                assert server.busy_until == twin.busy_until, lane.name
                assert server.completed_queries == twin.completed_queries, lane.name
