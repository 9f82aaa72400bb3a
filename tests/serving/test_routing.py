"""Tests for the pluggable replica-routing policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving.engine import ServingEngine
from repro.serving.replica_server import ReplicaServer, serve_least_work
from repro.serving.routing import (
    ROUTING_POLICIES,
    CostWeightedPolicy,
    LeastOutstandingPolicy,
    LeastWorkPolicy,
    PowerOfTwoPolicy,
    ReadyOnlyPolicy,
    RecoveryAwarePolicy,
    ReplicaPool,
    RoundRobinPolicy,
    RoutingPolicy,
    make_routing_policy,
    routing_policy_names,
)
from repro.serving.traffic import TrafficPattern


def _servers(n: int, ready_at: float = 0.0) -> list[ReplicaServer]:
    return [ReplicaServer(f"r{i}", ready_at=ready_at) for i in range(n)]


@pytest.fixture(scope="module")
def plan():
    cluster = cpu_only_cluster(num_nodes=4)
    return ElasticRecPlanner(cluster).plan(microbenchmark(num_tables=2), target_qps=30.0)


def _pick(policy, deployment, servers, now, cost=None):
    """The replica ``policy`` routes to among ``servers`` (``None``: drop)."""
    pool = ReplicaPool({server.name: server for server in servers})
    index = policy.select_index(deployment, pool, now, cost)
    return None if index is None else pool.servers[index]


class TestRegistry:
    def test_all_policies_registered(self):
        assert routing_policy_names() == [
            "least-work",
            "round-robin",
            "power-of-two",
            "ready-only",
            "least-outstanding",
            "cost-weighted",
            "recovery-aware",
        ]

    def test_make_by_name_and_passthrough(self):
        policy = make_routing_policy("round-robin")
        assert isinstance(policy, RoundRobinPolicy)
        assert make_routing_policy(policy) is policy

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_routing_policy("random-walk")

    def test_names_match_classes(self):
        for name, cls in ROUTING_POLICIES.items():
            assert cls.name == name
            assert issubclass(cls, RoutingPolicy)


class TestLeastWork:
    def test_picks_emptiest_queue(self):
        servers = _servers(3)
        servers[0].submit(0.0, 5.0)
        servers[1].submit(0.0, 1.0)
        policy = LeastWorkPolicy()
        assert _pick(policy, "d", servers, now=2.0) is servers[2]

    def test_prefers_ready_replicas(self):
        idle_but_starting = ReplicaServer("starting", ready_at=100.0)
        busy_but_ready = ReplicaServer("ready")
        busy_but_ready.submit(0.0, 10.0)
        policy = LeastWorkPolicy()
        assert _pick(policy, "d", [idle_but_starting, busy_but_ready], 1.0) is busy_but_ready

    def test_falls_back_to_starting_replicas(self):
        starting = _servers(2, ready_at=50.0)
        policy = LeastWorkPolicy()
        assert _pick(policy, "d", starting, now=1.0) is starting[0]

    def test_empty_pool(self):
        assert _pick(LeastWorkPolicy(), "d", [], 0.0) is None


class TestCostWeighted:
    def test_degenerates_to_least_work_without_a_hint(self):
        servers = _servers(3)
        servers[0].submit(0.0, 5.0)
        servers[1].submit(0.0, 1.0)
        assert _pick(CostWeightedPolicy(), "d", servers, now=2.0) is servers[2]

    def test_routes_by_predicted_completion(self):
        servers = _servers(2)
        servers[0].submit(0.0, 1.0)
        policy = CostWeightedPolicy()
        # Both idle by now=5: tie on completion, first replica wins.
        assert _pick(policy, "d", servers, 5.0, cost=(1.0, 1.0)) is servers[0]
        # Replica 0 backlogged: the prediction routes around it.
        servers[0].submit(5.0, 10.0)
        assert _pick(policy, "d", servers, 6.0, cost=(1.0, 1.0)) is servers[1]

    def test_prefers_a_joinable_forming_batch(self):
        from repro.hardware.perf_model import BatchLatencyModel

        model = BatchLatencyModel(
            kind="embedding", batch_exponent=0.85, overhead_fraction=0.2
        )
        batching = ReplicaServer("batching", max_batch=4, batch_model=model)
        batching.submit(0.0, 1.0)
        batching.submit(0.5, 1.0)  # forming batch starts service at 1.0
        loaded = ReplicaServer("loaded", batch_model=model)
        loaded.submit(0.0, 1.9)
        # Least-work sees drain times 2.0 vs 1.9 and picks the loaded
        # replica; the batch-aware prediction knows a cheap query can join
        # the forming batch (completing at 2.24, vs 2.34 queued behind the
        # loaded replica).
        assert _pick(LeastWorkPolicy(), "d", [batching, loaded], 0.7) is loaded
        policy = CostWeightedPolicy()
        assert _pick(policy, "d", [batching, loaded], 0.7, cost=(1.0, 0.3)) is batching

    def test_empty_pool(self):
        assert _pick(CostWeightedPolicy(), "d", [], 0.0, cost=(1.0, 1.0)) is None


class TestRoundRobin:
    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_cycles_per_deployment(self, size):
        servers = _servers(size)
        policy = RoundRobinPolicy()
        picks = [_pick(policy, "d", servers, 0.0) for _ in range(2 * size)]
        assert picks == servers + servers

    def test_cycles_over_ready_replicas_only(self):
        ready = _servers(2)
        starting = ReplicaServer("s", ready_at=100.0)
        policy = RoundRobinPolicy()
        pool = [ready[0], starting, ready[1]]
        picks = [_pick(policy, "d", pool, 1.0) for _ in range(4)]
        assert picks == ready + ready

    def test_empty_pool(self):
        assert _pick(RoundRobinPolicy(), "d", [], 0.0) is None

    def test_independent_cursors(self):
        a, b = _servers(2)
        policy = RoundRobinPolicy()
        assert _pick(policy, "d1", [a, b], 0.0) is a
        assert _pick(policy, "d2", [a, b], 0.0) is a
        assert _pick(policy, "d1", [a, b], 0.0) is b

    def test_reset_restarts_cursors(self):
        servers = _servers(2)
        policy = RoundRobinPolicy()
        _pick(policy, "d", servers, 0.0)
        policy.reset(np.random.default_rng(0))
        assert _pick(policy, "d", servers, 0.0) is servers[0]


class TestPowerOfTwo:
    def test_single_replica(self):
        servers = _servers(1)
        policy = PowerOfTwoPolicy(rng=np.random.default_rng(0))
        assert _pick(policy, "d", servers, 0.0) is servers[0]

    def test_prefers_less_loaded_of_the_sampled_pair(self):
        servers = _servers(2)
        servers[0].submit(0.0, 100.0)
        policy = PowerOfTwoPolicy(rng=np.random.default_rng(0))
        # With two replicas both are always sampled, so the idle one wins.
        for _ in range(10):
            assert _pick(policy, "d", servers, 0.0) is servers[1]

    @pytest.mark.parametrize("size", [3, 4, 8])
    def test_pair_is_two_distinct_replicas(self, size):
        servers = _servers(size)
        for index, server in enumerate(servers):
            server.submit(0.0, 1.0 + index)
        policy = PowerOfTwoPolicy(rng=np.random.default_rng(7))
        picks = {_pick(policy, "d", servers, 0.0).name for _ in range(50)}
        # A pair drawn with replacement could be the most loaded replica
        # twice; two distinct replicas never let it win.
        assert f"r{size - 1}" not in picks and len(picks) > 1

    def test_samples_ready_replicas_only(self):
        ready = _servers(3)
        # Idle, so least-loaded of any pair, but not routable before t=100.
        starting = [ReplicaServer(f"s{i}", ready_at=100.0) for i in range(3)]
        for server in ready:
            server.submit(0.0, 5.0)
        policy = PowerOfTwoPolicy(rng=np.random.default_rng(3))
        pool = [starting[0], ready[0], starting[1], ready[1], starting[2], ready[2]]
        picks = {_pick(policy, "d", pool, 1.0).name for _ in range(30)}
        assert picks <= {"r0", "r1", "r2"} and len(picks) > 1

    def test_empty_pool(self):
        assert _pick(PowerOfTwoPolicy(rng=np.random.default_rng(0)), "d", [], 0.0) is None

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_deterministic_after_reset(self, seed):
        servers = _servers(8)
        policy = PowerOfTwoPolicy(rng=np.random.default_rng(seed))
        first = [_pick(policy, "d", servers, 0.0).name for _ in range(20)]
        assert len(set(first)) > 1
        policy.reset(np.random.default_rng(seed))
        assert [_pick(policy, "d", servers, 0.0).name for _ in range(20)] == first


class TestReadyOnly:
    def test_drops_when_nothing_ready(self):
        policy = ReadyOnlyPolicy()
        assert _pick(policy, "d", _servers(3, ready_at=100.0), now=1.0) is None

    def test_routes_least_work_among_ready(self):
        ready = _servers(2)
        ready[0].submit(0.0, 5.0)
        starting = ReplicaServer("s", ready_at=100.0)
        policy = ReadyOnlyPolicy()
        assert _pick(policy, "d", ready + [starting], now=1.0) is ready[1]


class TestLeastOutstanding:
    """In-flight attempts are those whose submitted completion is after ``now``."""

    def test_tracks_in_flight_counts(self):
        servers = _servers(2)
        policy = LeastOutstandingPolicy()
        first = _pick(policy, "d", servers, 0.0)
        policy.on_submit("d", first, first.submit(0.0, 1.0))
        assert _pick(policy, "d", servers, 0.0) is servers[1]
        policy.on_submit("d", servers[1], servers[1].submit(0.0, 2.0))
        # ``first``'s attempt completed at 1.0; ``servers[1]``'s runs to 2.0.
        assert _pick(policy, "d", servers, 1.5) is first

    def test_reset_clears_counts(self):
        servers = _servers(2)
        policy = LeastOutstandingPolicy()
        policy.on_submit("d", servers[0], 5.0)
        policy.reset(np.random.default_rng(0))
        assert _pick(policy, "d", servers, 0.0) is servers[0]

    def test_an_attempt_completing_at_now_no_longer_counts(self):
        # servers[0] has attempts ending at 1.0 and 2.0, servers[1] one
        # ending at 3.0.  At exactly 1.0 each has one left, and the tie
        # goes to the replica whose queue drains first.
        servers = _servers(2)
        policy = LeastOutstandingPolicy()
        for server, service in ((servers[0], 1.0), (servers[0], 1.0), (servers[1], 3.0)):
            policy.on_submit("d", server, server.submit(0.0, service))
        assert _pick(policy, "d", servers, 0.999) is servers[1]
        assert _pick(policy, "d", servers, 1.0) is servers[0]

    def test_batched_attempts_count_until_their_returned_completion(self):
        # A joiner stretches servers[0]'s batch to end at 2.5, but the
        # opener's submit returned 1.5: after that only the joiner counts,
        # although the replica is busy until 2.5.
        servers = [ReplicaServer(f"r{i}", max_batch=2, batch_window_s=0.5) for i in range(2)]
        policy = LeastOutstandingPolicy()
        returned = [
            servers[0].submit(0.0, 1.0),
            servers[0].submit(0.2, 1.0),
            servers[1].submit(0.0, 3.0),
        ]
        assert returned == [1.5, 2.5, 3.5]
        for server, completion in zip((servers[0], servers[0], servers[1]), returned):
            policy.on_submit("d", server, completion)
        assert servers[0].busy_until == 2.5
        assert _pick(policy, "d", servers, 1.4) is servers[1]
        assert _pick(policy, "d", servers, 2.0) is servers[0]

    def test_replan_shard_copies_count_as_in_flight(self, plan):
        class Recording(LeastOutstandingPolicy):
            def __init__(self):
                super().__init__()
                self.submits = []

            def on_submit(self, deployment_name, server, completion):
                self.submits.append((deployment_name, server.name, completion))
                super().on_submit(deployment_name, server, completion)

        policy = Recording()
        engine = ServingEngine(
            plan, routing=policy, cost_model="skewed", replan="sla@1.2:patience=2",
            autoscale=False, seed=0,
        )
        runtime = engine._runtimes[0]
        runtime.begin_run(TrafficPattern.constant(20.0, duration_s=60.0))
        now = 10.0
        cutover_at = runtime.start_replan(now)
        copied = {
            (lane.name, name): server.busy_until
            for lane in runtime._lanes
            if not lane.dense
            for name, server in runtime.servers[lane.name].items()
        }
        assert len(copied) > 1
        assert {(d, name): c for d, name, c in policy.submits} == copied
        assert len(policy.submits) == len(copied)
        assert max(copied.values()) == cutover_at > now
        # Every copy is in flight until it lands: a replica with a copy ahead
        # loses to a fresh replica whose queue drains later.
        lane = next(lane for lane in runtime._lanes if not lane.dense)
        pool = lane.pool.refresh()
        fresh = ReplicaServer("fresh")
        fresh.submit(now, cutover_at - now + 1.0)
        servers = [pool.servers[0], fresh]
        assert _pick(policy, lane.name, servers, now) is fresh

    def test_a_crash_replacement_gets_a_fresh_replica_name(self, plan):
        # The in-flight times are keyed by replica name, so a rebuilt replica
        # must never inherit its predecessor's name (and attempts).
        deployment = "micro-medium-high-2t-table0-shard0"
        engine = ServingEngine(
            plan,
            routing="least-outstanding",
            autoscale=False,
            seed=0,
            faults=f"crash@20:deployment={deployment},replica=0,policy=requeue",
        )
        runtime = engine._runtimes[0]
        before: set[str] = set()
        seen: set[str] = set()

        def observe(now, kind):
            names = set(runtime.servers[deployment])
            if now < 20.0:
                before.update(names)
            seen.update(names)

        engine.run(TrafficPattern.constant(20.0, duration_s=60.0), on_event=observe)
        after = set(runtime.servers[deployment])
        assert len(after) == len(before) == 2
        lost = before - after
        assert len(lost) == 1, "the crash did not take a replica"
        replacement = after - before
        assert len(replacement) == 1 and not replacement & lost
        assert seen == before | after


class TestPoliciesUnderIdenticalArrivals:
    """Same plan, same seed (hence identical arrivals) across policies."""

    @pytest.fixture(scope="class")
    def results(self, plan):
        pattern = TrafficPattern.constant(25.0, duration_s=240.0)
        out = {}
        for name in routing_policy_names():
            engine = ServingEngine(plan, routing=name, autoscale=False, seed=0)
            out[name] = engine.run(pattern)
        return out

    def test_identical_arrivals_across_policies(self, results):
        counts = {r.tracker.num_samples for r in results.values()}
        assert len(counts) == 1

    def test_all_policies_serve_the_load(self, results):
        for name, result in results.items():
            assert np.mean(result.achieved_qps[4:]) == pytest.approx(25.0, rel=0.1), name

    def test_result_records_routing_name(self, results):
        for name, result in results.items():
            assert result.routing == name

    def test_load_aware_beats_round_robin_tail(self, results):
        # Round-robin ignores queue depth, so its tail latency cannot beat
        # least-work under the same arrivals (ties only in the unloaded limit).
        assert (
            results["least-work"].overall_p95_latency_ms
            <= results["round-robin"].overall_p95_latency_ms * 1.05
        )


def _replicas(ready_at, busy_until, service=1.0):
    """Single-query replicas with the given ready times and drain times.

    A replica busier than its ready time holds one query submitted at its
    ready time (integer inputs keep every drain time exact).
    """
    servers = []
    for index, (ready, busy) in enumerate(zip(ready_at, busy_until)):
        server = ReplicaServer(f"r{index}", ready_at=ready)
        if busy > ready:
            server.submit(ready, busy - ready)
        servers.append(server)
    return servers


def _served_both_ways(policy, ready_at, busy_until, arrivals, multipliers=None):
    """``arrivals`` served per query (``select_index`` + ``submit``) and by the
    drain kernel under the policy's ranking, on identical replica sets.

    Returns ``(per_query, kernel)``, each a list of (replica index,
    completion) per query followed by every replica's final drain time and
    served count.
    """
    service = 1.0
    costs = multipliers or [1.0] * len(arrivals)

    def outcome(servers, picks):
        return picks, [(s.busy_until, s.completed_queries) for s in servers]

    servers = _replicas(ready_at, busy_until)
    pool = ReplicaPool({server.name: server for server in servers}).refresh()
    picks = []
    for arrival, cost in zip(arrivals, costs):
        index = policy.select_index("d", pool, arrival, (service, cost))
        completion = pool.servers[index].submit(arrival, service, cost)
        pool.busy[index] = completion
        picks.append((index, completion))
    per_query = outcome(servers, picks)

    servers = _replicas(ready_at, busy_until)
    pool = ReplicaPool({server.name: server for server in servers}).refresh()
    warmup_s, penalty_queries = policy.least_work_ranking(pool)
    penalties = None
    if penalty_queries > 0:
        penalties = [penalty_queries * (service * cost) for cost in costs]
    chosen = []
    completions = serve_least_work(
        pool.servers, pool.ready.tolist(), arrivals, service, multipliers, None, chosen,
        warmup_s, penalties,
    )
    kernel = outcome(servers, list(zip(chosen, completions)))
    return per_query, kernel


class TestLeastWorkRanking:
    """The drain kernel ranks a pool exactly as the policy's ``select_index``
    does (``RoutingPolicy.least_work_ranking``): replicas join at their
    ready time, warming replicas carry the fading cold penalty, every
    replica ranks while none is ready, and ties go to the lowest index."""

    POLICIES = [
        pytest.param(LeastWorkPolicy(), id="least-work"),
        pytest.param(RecoveryAwarePolicy(warmup_s=64.0), id="recovery-aware"),
    ]

    def test_only_least_work_rankings_are_declared(self):
        pool = ReplicaPool({s.name: s for s in _servers(2)}).refresh()
        assert LeastWorkPolicy().least_work_ranking(pool) == (0.0, 0.0)
        assert RecoveryAwarePolicy(warmup_s=64.0).least_work_ranking(pool) == (64.0, 4.0)
        for name in ("round-robin", "power-of-two", "ready-only",
                     "least-outstanding", "cost-weighted"):
            assert make_routing_policy(name).least_work_ranking(pool) is None, name

    @pytest.mark.parametrize("policy", POLICIES)
    def test_staggered_ready_times_join_on_arrival(self, policy):
        # Replica 0 is ready but backed up; replicas 1-3 turn ready at 10,
        # 20 and 30, each less backed up than the ones before.  An arrival
        # exactly at a ready time must already see that replica (``ready <=
        # now``), and does pick it.
        per_query, kernel = _served_both_ways(
            policy,
            ready_at=[0, 10, 20, 30],
            busy_until=[200, 150, 150, 30],
            arrivals=[5.0, 10.0, 10.5, 20.0, 25.0, 30.0, 31.0, 90.0, 100.0],
        )
        assert kernel == per_query
        picks = [index for index, _ in per_query[0]]
        assert picks[1] == 1 and picks[3] == 2 and picks[5] == 3

    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_replica_ready_ranks_every_replica(self, policy):
        per_query, kernel = _served_both_ways(
            policy,
            ready_at=[50, 40, 60],
            busy_until=[50, 40, 60],
            arrivals=[0.0, 1.0, 2.0, 3.0, 39.0, 45.0, 55.0],
            multipliers=[1.0, 2.0, 0.5, 1.0, 3.0, 1.0, 1.0],
        )
        assert kernel == per_query
        assert per_query[0][0][0] == 1  # the least-work starting replica

    @pytest.mark.parametrize("policy", POLICIES)
    def test_equal_keys_go_to_the_lowest_index(self, policy):
        # Identical replicas tie on every key.
        per_query, kernel = _served_both_ways(
            policy, ready_at=[8, 8, 8], busy_until=[8, 8, 8], arrivals=[16.0, 16.0, 16.0, 17.0]
        )
        assert kernel == per_query
        assert [index for index, _ in per_query[0][:3]] == [0, 1, 2]

    @pytest.mark.parametrize("warming_first", [True, False])
    def test_equal_penalised_and_plain_keys_go_to_the_lowest_index(self, warming_first):
        # At t = 32 the warming replica (ready at 0, warm-up 64 s, drain 32)
        # carries 4 x 1 s x (64 - 32) / 64 = 2 s of penalty: key 34, exactly
        # the plain replica's drain time.  The lower index wins either way.
        warming, plain = (0, 1) if warming_first else (1, 0)
        ready_at, busy_until = [0, 0], [0, 0]
        ready_at[warming], busy_until[warming] = 0, 32
        ready_at[plain], busy_until[plain] = -100, 34
        per_query, kernel = _served_both_ways(
            RecoveryAwarePolicy(warmup_s=64.0), ready_at, busy_until, arrivals=[32.0]
        )
        assert kernel == per_query
        assert per_query[0][0][0] == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_arrival_at_the_end_of_the_warm_up_window(self, policy):
        # Replica 1 turns ready at 10; at 10 + 64 its penalty is exactly
        # zero, and the arrivals around that instant rank it as the policy
        # does.
        per_query, kernel = _served_both_ways(
            policy,
            ready_at=[0, 10],
            busy_until=[76, 10],
            arrivals=[73.0, 73.5, 74.0, 74.0, 74.5],
        )
        assert kernel == per_query
