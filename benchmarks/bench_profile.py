"""Profile the serving engine's hot path and lock its shape.

Runs a mid-size dynamic-traffic simulation under ``cProfile`` and reports the
top cumulative hot spots through ``benchmark.extra_info``, so the recorded
benchmark artifacts show *where* the time went, not just how much there was.

Beyond reporting, the profile is used as a structural regression test of the
hot path itself:

* every routing decision goes through ``select_index`` over the replica
  pool's arrays (one call per query per deployment), and no routing policy
  keeps a per-server ``select`` loop beside it — the assertions fail before
  any wall-clock regression shows up in CI timing noise;
* ``serve_query`` must be called exactly once per served query, guarding the
  chunked arrival drain against double-serving or skipping;
* the *cached* run must stay on the same shape: pricing happens inline
  against the pool's array-backed fills, so neither the per-replica
  ``ReplicaCache.serve`` reference nor the ``cache_adjusted_multiplier``
  helper may appear in the profile at all.
"""

from __future__ import annotations

import cProfile
import pstats

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import rm1
from repro.serving.engine import ServingEngine
from repro.serving.routing import ROUTING_POLICIES, RoutingPolicy
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


def test_bench_profile_hot_path(benchmark):
    """Profile a mid-size run; assert the pool-array hot path carried it."""
    pattern = paper_dynamic_pattern(base_qps=30.0, peak_qps=110.0, duration_s=600.0)
    profiler = cProfile.Profile()

    def run():
        engine = ServingEngine(_reduced_plan(), seed=0)
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

    serve_calls = table["engine.py:serve_query"][0]
    assert serve_calls == queries, "serve_query must run exactly once per query"

    select_calls = table.get("routing.py:select_index", (0, 0.0))[0]
    assert select_calls == queries * deployments, (
        "select_index must carry every routing decision "
        f"(saw {select_calls}, expected {queries * deployments})"
    )
    _assert_select_index_only()

    top = sorted(table.items(), key=lambda item: item[1][1], reverse=True)
    benchmark.extra_info["queries"] = queries
    benchmark.extra_info["deployments"] = deployments
    for rank, (name, (calls, cumulative)) in enumerate(top[:8]):
        benchmark.extra_info[f"hot_{rank}"] = f"{name} calls={calls} cum={cumulative:.3f}s"


def test_bench_profile_cached_hot_path(benchmark):
    """Profile a cached run; assert pricing stayed inline and array-backed.

    The per-replica embedding caches must not drag the engine off its
    shape: fills live only in ``ReplicaPool.fill_rows`` and pricing is
    inlined in the dispatch loop, so neither the spec's ``hit_fractions``
    nor the ``cache_adjusted_multiplier`` helper may show in the profile.
    """
    pattern = paper_dynamic_pattern(base_qps=30.0, peak_qps=110.0, duration_s=600.0)
    profiler = cProfile.Profile()

    def run():
        engine = ServingEngine(
            _reduced_plan(), seed=0, cost_model="skewed", cache_mb=64.0
        )
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

    serve_calls = table["engine.py:serve_query"][0]
    assert serve_calls == queries, "serve_query must run exactly once per query"

    select_calls = table.get("routing.py:select_index", (0, 0.0))[0]
    assert select_calls == queries * deployments, (
        "select_index must carry every routing decision "
        f"(saw {select_calls}, expected {queries * deployments})"
    )
    _assert_select_index_only()
    for leaked in (
        "replica_server.py:serve",
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
