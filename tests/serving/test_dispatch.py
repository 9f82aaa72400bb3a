"""One pricing rule for every attempt: first attempts, retries, crash requeues.

Each test drives one tenant runtime by hand — serve a few queries, crash a
replica at a chosen instant, replay the resulting retry — and records the
cost multiplier every replica was charged.  A query keeps its own
multiplier and its gather split through every re-issue, so a retry or a
requeue pays exactly what a first attempt would pay at the same instant.
"""

from __future__ import annotations

import heapq
import itertools

import pytest
from oracle import ReplicaCache, degraded_gather_multiplier

from repro.core.planner import ElasticRecPlanner
from repro.hardware.perf_model import cache_adjusted_multiplier
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving.engine import EventKind, ServingEngine
from repro.serving.replica_server import ReplicaServer
from repro.serving.traffic import TrafficPattern


@pytest.fixture(scope="module")
def plan():
    return ElasticRecPlanner(cpu_only_cluster(num_nodes=4)).plan(
        microbenchmark(num_tables=2), target_qps=30.0
    )


@pytest.fixture
def charged(monkeypatch):
    """Every submit as ``(replica name, multiplier)``, in call order."""
    calls = []
    submit = ReplicaServer.submit

    def recording(server, arrival, service_time, multiplier=1.0):
        calls.append((server.name, multiplier))
        return submit(server, arrival, service_time, multiplier)

    monkeypatch.setattr(ReplicaServer, "submit", recording)
    return calls


class Harness:
    """A begun run of one skewed-cost, watchdog-guarded tenant."""

    def __init__(self, plan, charged, warm=False, **options):
        engine = ServingEngine(
            plan, seed=3, autoscale=False, cost_model="skewed", slo="p95@1.5:storm=1.0",
            **options,
        )
        self.runtime = runtime = engine._runtimes[0]
        for lane in runtime._lanes:
            if warm and lane.cached:
                pool = lane.pool.refresh()
                pool.fill_rows[:] = [pool.cache_capacity] * pool.size
        runtime.begin_run(TrafficPattern.constant(20.0, duration_s=60.0))
        self.heap: list = []
        runtime.bind(self.heap, [], itertools.count(), 0)
        runtime.track_inflight = True
        self.charged = charged
        # An expensive query, so a wrong multiplier cannot pass for it.
        self.query = next(i for i, m in enumerate(runtime.query_multipliers) if m > 1.5)
        self.multiplier = runtime.query_multipliers[self.query]
        self.split = (runtime.query_hot[self.query], runtime.query_cold[self.query])

    def lane_of(self, server_name: str):
        return next(
            lane for lane in self.runtime._lanes if server_name in lane.servers
        )

    def serve(self) -> float:
        """Serve queries up to ``self.query``; return its arrival."""
        for index in range(self.query + 1):
            arrival = self.runtime.arrival_at(index)
            self.charged.clear()
            self.runtime.serve_query(arrival, index)
        return arrival

    def crash(self, now: float, dense: bool, policy: str) -> None:
        """Kill the replica that holds the last dispatch's shard on a lane."""
        victim = next(name for name, _ in self.charged if self.lane_of(name).dense == dense)
        self.charged.clear()
        self.runtime._kill_server(now, self.lane_of(victim), victim, policy)

    def replay_retry(self) -> float:
        """Pop the query's scheduled client retry, re-issue it, return its time."""
        while True:
            at, kind, token, (_, query) = heapq.heappop(self.heap)
            if kind == EventKind.RETRY and query == self.query:
                break
        self.charged.clear()
        self.runtime.handle_retry(at, query, token)
        return at

    def embedding_charges(self) -> list[float]:
        return [m for name, m in self.charged if self.lane_of(name).cost_bearing]

    def fallback_price(self) -> float:
        """The query's cache-hot-only price under quality fallback."""
        hot_cost = self.runtime.cost_model.hot_cost_fraction
        return degraded_gather_multiplier(self.multiplier, *self.split, hot_cost)


def test_crash_converted_retry_keeps_the_query_multiplier(plan, charged):
    # A dense replica dies under armed deadlines: the client re-issues the
    # query, and every embedding lane must charge the query's own multiplier
    # (the dense lane's flat 1.0 is not the query's price).
    harness = Harness(plan, charged)
    harness.runtime.deadline_armed = True
    now = harness.serve()
    harness.crash(now, dense=True, policy="drop")
    harness.replay_retry()
    charges = harness.embedding_charges()
    assert charges and all(m == harness.multiplier for m in charges)


def test_crash_converted_retry_keeps_the_gather_split(plan, charged):
    # An embedding replica without a cache tier dies under armed deadlines
    # and quality fallback: the retry must price the exact cache-hot-only
    # gather, not the policy's flat quality fraction.
    harness = Harness(plan, charged)
    harness.runtime.deadline_armed = True
    now = harness.serve()
    harness.runtime.fallback_armed = True
    harness.crash(now, dense=False, policy="drop")
    harness.replay_retry()
    charges = harness.embedding_charges()
    assert charges and all(m == harness.fallback_price() for m in charges)


def test_requeued_retry_is_repriced_on_the_survivor_cache(plan, charged):
    # Warm caches everywhere; a retry's shard is crash-requeued onto a
    # survivor, which must price it through its cache like a first attempt.
    harness = Harness(plan, charged, warm=True, cache_mb=16.0, initial_replicas=2)
    harness.runtime.deadline_armed = True
    now = harness.serve()
    harness.crash(now, dense=True, policy="drop")
    harness.crash(harness.replay_retry(), dense=False, policy="requeue")
    survivor, charge = harness.charged[-1]
    pool = harness.lane_of(survivor).pool.refresh()
    cache = ReplicaCache(harness.runtime.cache_spec)
    cache.fill_rows = pool.fill_rows[pool.index_of[survivor]]
    hit_rate = cache.hit_rate(*harness.split)
    assert hit_rate > 0.0
    assert charge == cache_adjusted_multiplier(
        harness.multiplier, hit_rate, cache.spec.hit_cost_fraction
    )


def test_requeue_under_quality_fallback_pays_the_degraded_price(plan, charged):
    # With fallback armed, a crash requeue pays the cache-hot-only price a
    # first attempt or a retry would pay at the same instant.
    harness = Harness(plan, charged, initial_replicas=2)
    now = harness.serve()
    harness.runtime.fallback_armed = True
    harness.crash(now, dense=False, policy="requeue")
    assert harness.charged[-1][1] == harness.fallback_price()
