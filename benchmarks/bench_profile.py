"""Profile the serving engine's hot path and lock its shape.

Runs a mid-size dynamic-traffic simulation under ``cProfile`` and reports the
top cumulative hot spots through ``benchmark.extra_info``, so the recorded
benchmark artifacts show *where* the time went, not just how much there was.

Beyond reporting, the profile is used as a structural regression test of the
hot path itself:

* every served query is recorded exactly once, in arrival order (tracker
  sample ``i`` is arrival ``i``), guarding the chunked arrival drain and its
  lane-by-lane kernel against double-serving or skipping;
* the kernel carried the run: ``serve_query`` (one call per drain's popped
  arrival) sees at most 15% of the queries, where the per-query path would
  see all of them — the assertions fail before any wall-clock regression
  shows up in CI timing noise.  That includes a recovery-aware run through
  a crash storm: faults and the policy's warm-up window keep the kernel
  serving, with in-flight tracking on; and the same storm under an SLO
  watchdog with a short attempt timeout, where armed shedding, deadlines
  and fallback stay in the kernel and one-lane ``_dispatch`` calls stay
  at most 5% of the query-lanes;
* lanes with equal kernel inputs are served once: the least-work and
  cached runs make at most one kernel call per distinct static lane
  configuration per chunk, where serving each lane would make one per lane;
* no routing policy keeps a per-server ``select`` loop beside the pool-array
  ``select_index``;
* a fleet's drains run to the next control event: a tenant's arrivals
  start at most one ARRIVAL event per distinct control-event time (plus
  one), however the other tenants' arrivals interleave, and the control
  tick's windowed statistics never call ``np.percentile``;
* the *cached* run must stay on the same shape: pricing happens against the
  pool's array-backed fills, so neither the spec's ``hit_fractions`` nor
  the ``cache_adjusted_multiplier`` helper may appear in the profile at all
  (the per-replica ``ReplicaCache`` reference lives in the tests).
"""

from __future__ import annotations

import cProfile
import pstats

import numpy as np

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import rm1
from repro.serving.engine import (
    EventKind,
    MultiTenantEngine,
    ServingEngine,
    TenantSpec,
    _TenantRuntime,
)
from repro.serving.routing import ROUTING_POLICIES, RoutingPolicy
from repro.serving.scenarios import build_scenario
from repro.serving.traffic import paper_dynamic_pattern


def _reduced_plan():
    cluster = cpu_only_cluster(num_nodes=8)
    workload = rm1().scaled_tables(4).with_name("RM1-profile")
    return ElasticRecPlanner(cluster).plan(workload, 18.0)


def _stats_by_name(stats: pstats.Stats) -> dict[str, tuple[int, float]]:
    """Map ``filename:function`` to summed (primitive calls, cumulative secs).

    cProfile keys entries by (filename, lineno, funcname); same-named
    functions at different lines (``select_index`` on every policy class,
    the policies' ``__init__``\\ s) are *summed*, not overwritten, so call
    totals stay meaningful.
    """
    table: dict[str, tuple[int, float]] = {}
    for (filename, _, function), (pcalls, _, _, cumulative, _) in stats.stats.items():
        key = f"{filename.rsplit('/', 1)[-1]}:{function}"
        calls, seconds = table.get(key, (0, 0.0))
        table[key] = (calls + pcalls, seconds + cumulative)
    return table


def _assert_select_index_only() -> None:
    """No routing policy defines a per-server ``select`` beside ``select_index``."""
    for cls in (RoutingPolicy, *ROUTING_POLICIES.values()):
        assert "select" not in vars(cls), f"{cls.__name__} defines a scalar select"


def _assert_served_once_by_the_kernel(engine, result, table) -> None:
    """Each served arrival recorded once, in order, mostly lane by lane."""
    runtime = engine._runtimes[0]
    queries = result.tracker.num_samples
    assert queries == runtime.num_served, "a query was skipped or served twice"
    arrivals = runtime.arrivals[:queries]
    # Both serving paths record ``arrival + latency`` as the completion.
    assert np.array_equal(
        arrivals + result.tracker.latencies_s, result.tracker.completion_times
    ), "tracker samples are not in arrival order"
    serve_calls = table["engine.py:serve_query"][0]
    assert serve_calls <= 0.15 * queries, (
        "the lane-by-lane drain kernel must carry the run "
        f"(serve_query saw {serve_calls} of {queries} queries)"
    )


def _assert_twins_served_once(engine, table) -> None:
    """At most one kernel call per distinct static lane configuration per chunk.

    The tables of a Table II model share one configuration, so each shard
    type has one lane per table; a lane whose kernel inputs equal an
    earlier lane's copies its outcome instead of calling the kernel.
    """
    lanes = engine._runtimes[0]._lanes
    distinct = len({(lane.service_s, lane.cost_bearing, lane.cached) for lane in lanes})
    assert distinct < len(lanes)
    kernel_calls = table["replica_server.py:serve_least_work"][0]
    chunks = table["engine.py:serve_chunk"][0]
    assert kernel_calls <= distinct * chunks, (
        f"twin lanes were served separately ({kernel_calls} kernel calls for "
        f"{chunks} chunks of {len(lanes)} lanes, {distinct} distinct)"
    )


def test_bench_profile_hot_path(benchmark):
    """Profile a mid-size run; assert the drain kernel carried it."""
    pattern = paper_dynamic_pattern(base_qps=30.0, peak_qps=110.0, duration_s=600.0)
    profiler = cProfile.Profile()

    engine = ServingEngine(_reduced_plan(), seed=0)

    def run():
        profiler.enable()
        result = engine.run(pattern)
        profiler.disable()
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    queries = result.tracker.num_samples
    assert queries > 10_000

    stats = pstats.Stats(profiler)
    table = _stats_by_name(stats)
    deployments = len(result.replica_counts)
    _assert_served_once_by_the_kernel(engine, result, table)
    _assert_twins_served_once(engine, table)
    _assert_select_index_only()

    top = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    benchmark.extra_info["queries"] = queries
    benchmark.extra_info["deployments"] = deployments
    for rank, (name, (calls, cumulative)) in enumerate(top[:8]):
        benchmark.extra_info[f"hot_{rank}"] = f"{name} calls={calls} cum={cumulative:.3f}s"


def test_bench_profile_recovery_aware_crash_storm(benchmark):
    """Profile a recovery-aware run through a crash storm; the kernel carries it."""
    pattern = paper_dynamic_pattern(base_qps=30.0, peak_qps=110.0, duration_s=600.0)
    profiler = cProfile.Profile()

    engine = ServingEngine(
        _reduced_plan(),
        seed=0,
        routing="recovery-aware",
        faults="crash-storm",
        autoscale=False,
    )

    def run():
        profiler.enable()
        result = engine.run(pattern)
        profiler.disable()
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    queries = result.tracker.num_samples
    assert queries > 10_000
    assert result.faults_injected > 0, "the crash storm never struck"

    table = _stats_by_name(pstats.Stats(profiler))
    _assert_served_once_by_the_kernel(engine, result, table)

    top = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    benchmark.extra_info["queries"] = queries
    benchmark.extra_info["faults_injected"] = result.faults_injected
    for rank, (name, (calls, cumulative)) in enumerate(top[:8]):
        benchmark.extra_info[f"hot_{rank}"] = f"{name} calls={calls} cum={cumulative:.3f}s"


#: The ``incident_slo`` workload's availability-first policy with a 2x-SLA
#: attempt timeout, so the crash storm arms deadlines (and TIMEOUTs and
#: retries fire) and quality fallback.
_SHORT_TIMEOUT_SLO = (
    "p95@1.5:p99=8,availability=0.995,reject=0.02,patience=1,"
    "shed=0.0,deadline=20,timeout=2,retries=3,storm=0.5,recover=2"
)


def test_bench_profile_watchdog_crash_storm(benchmark, monkeypatch):
    """Profile a watchdog-armed recovery-aware crash storm; the kernel carries it.

    Fixed replicas at half the planned load, as the ``incident_slo``
    workload runs.  Armed shedding, deadlines and fallback are served by
    the kernel (deadlines in windows of one attempt timeout), and so are
    warming replicas: one-lane ``_dispatch`` calls, the per-query route a
    lane falls back to, stay at most 5% of the query-lanes.
    """
    pattern = paper_dynamic_pattern(base_qps=4.5, peak_qps=9.0, duration_s=1800.0)
    profiler = cProfile.Profile()

    engine = ServingEngine(
        _reduced_plan(),
        seed=0,
        routing="recovery-aware",
        faults="crash-storm",
        autoscale=False,
        slo=_SHORT_TIMEOUT_SLO,
    )
    one_lane = [0]
    dispatch = _TenantRuntime._dispatch

    def counted(self, lanes, *args):
        if len(lanes) == 1:
            one_lane[0] += 1
        return dispatch(self, lanes, *args)

    monkeypatch.setattr(_TenantRuntime, "_dispatch", counted)

    def run():
        profiler.enable()
        result = engine.run(pattern)
        profiler.disable()
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    queries = result.tracker.num_samples
    assert queries > 10_000
    assert result.faults_injected > 0, "the crash storm never struck"
    assert result.retried_queries > 0, "no attempt timed out and retried"
    assert result.watchdog_series["degraded"].sum() > 0, "fallback never armed"

    table = _stats_by_name(pstats.Stats(profiler))
    _assert_served_once_by_the_kernel(engine, result, table)
    lane_queries = queries * len(result.replica_counts)
    assert one_lane[0] <= 0.05 * lane_queries, (
        f"{one_lane[0]} one-lane _dispatch calls for {lane_queries} query-lanes"
    )

    top = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    benchmark.extra_info["queries"] = queries
    benchmark.extra_info["one_lane_dispatches"] = one_lane[0]
    benchmark.extra_info["retried_queries"] = result.retried_queries
    for rank, (name, (calls, cumulative)) in enumerate(top[:8]):
        benchmark.extra_info[f"hot_{rank}"] = f"{name} calls={calls} cum={cumulative:.3f}s"


def test_bench_profile_cached_hot_path(benchmark):
    """Profile a cached run; assert pricing stayed array-backed.

    The per-replica embedding caches must not drag the engine off its
    shape: fills live only in ``ReplicaPool.fill_rows`` and pricing is
    ``ReplicaPool.cached_price``, so neither the spec's ``hit_fractions``
    nor the ``cache_adjusted_multiplier`` helper may show in the profile.
    """
    pattern = paper_dynamic_pattern(base_qps=30.0, peak_qps=110.0, duration_s=600.0)
    profiler = cProfile.Profile()

    engine = ServingEngine(_reduced_plan(), seed=0, cost_model="skewed", cache_mb=64.0)

    def run():
        profiler.enable()
        result = engine.run(pattern)
        profiler.disable()
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    queries = result.tracker.num_samples
    assert queries > 10_000
    assert result.cache_hit_rate, "the cached profile run recorded no hit-rate series"

    stats = pstats.Stats(profiler)
    table = _stats_by_name(stats)
    deployments = len(result.replica_counts)
    _assert_served_once_by_the_kernel(engine, result, table)
    _assert_twins_served_once(engine, table)
    _assert_select_index_only()
    for leaked in (
        "oracle.py:serve",
        "replica_server.py:hit_fractions",
        "perf_model.py:cache_adjusted_multiplier",
        "perf_model.py:factor",
    ):
        assert leaked not in table, (
            f"{leaked} leaked into the cached hot path; pricing must stay "
            "inline against the pool's array-backed fills"
        )

    top = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    benchmark.extra_info["queries"] = queries
    benchmark.extra_info["deployments"] = deployments
    for rank, (name, (calls, cumulative)) in enumerate(top[:8]):
        benchmark.extra_info[f"hot_{rank}"] = f"{name} calls={calls} cum={cumulative:.3f}s"


def test_bench_profile_fleet_drains(benchmark, monkeypatch):
    """Profile a reduced fleet; each drain runs to the next control event.

    Four tenants on one pool, each on its own seed (so their arrivals
    interleave) and on one of four routing policies, as ``fleet_streamed``
    rotates them.  A drain used to end at the next tenant's arrival, about
    one query per ARRIVAL event; now only control ticks, faults, replans,
    watchdog actions, timeouts and retries end it.
    """
    plan = _reduced_plan()
    routings = ("least-work", "least-outstanding", "power-of-two", "round-robin")
    tenants = [
        TenantSpec(
            f"tenant-{index}", plan,
            build_scenario("diurnal", 4.0, 12.0, 600.0, seed=index),
            routing=routing, seed=index, max_replicas=4,
        )
        for index, routing in enumerate(routings)
    ]
    percentile_calls = [0]
    percentile = np.percentile

    def counted(*args, **kwargs):
        percentile_calls[0] += 1
        return percentile(*args, **kwargs)

    monkeypatch.setattr(np, "percentile", counted)
    arrivals = [0]
    control_times = set()

    def observe(now, kind):
        if kind == EventKind.ARRIVAL:
            arrivals[0] += 1
        else:
            control_times.add(now)

    profiler = cProfile.Profile()

    def run():
        profiler.enable()
        result = MultiTenantEngine(tenants).run(on_event=observe)
        profiler.disable()
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    queries = result.total_queries
    assert queries > 10_000
    bound = len(tenants) * (len(control_times) + 1)
    assert arrivals[0] <= bound, (
        f"{arrivals[0]} ARRIVAL events for {queries} queries; drains must run "
        f"to the next of {len(control_times)} control-event times (bound {bound})"
    )
    assert percentile_calls[0] == 0, f"the run called np.percentile {percentile_calls[0]} times"

    table = _stats_by_name(pstats.Stats(profiler))
    top = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    benchmark.extra_info["queries"] = queries
    benchmark.extra_info["arrival_events"] = arrivals[0]
    benchmark.extra_info["queries_per_arrival_event"] = round(queries / arrivals[0], 1)
    for rank, (name, (calls, cumulative)) in enumerate(top[:8]):
        benchmark.extra_info[f"hot_{rank}"] = f"{name} calls={calls} cum={cumulative:.3f}s"
