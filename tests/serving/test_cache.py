"""Tests for the per-replica embedding-cache tier.

Three contracts pin the cache down:

* **Off means off** — ``cache_mb=0`` (and any capacity that rounds to zero
  rows) never touches the cache path, so the run is bit-for-bit identical to
  the uncached engine;
* **Full means exact** — a warm cache whose capacity covers the whole table
  hits every gather, and the adjusted cost is *exactly*
  ``hit_cost_fraction`` times the uncached multiplier;
* **Cold restarts** — a crash replacement starts with an empty cache, so the
  lane's hit-rate series dips after the fault and climbs back as the
  replacement warms from the queries it serves.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle import ReplicaCache

from repro.core.planner import ElasticRecPlanner
from repro.data.distributions import ZipfDistribution
from repro.hardware.perf_model import cache_adjusted_multiplier
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving import engine as engine_module
from repro.serving.engine import ServingEngine
from repro.serving.replica_server import CacheSpec
from repro.serving.routing import ReplicaPool
from repro.serving.scenarios import build_scenario
from repro.serving.traffic import TrafficPattern
from repro.serving.workload import SkewedCostModel

ROWS = 10_000
POOLING = 64


@pytest.fixture(scope="module")
def plan():
    cluster = cpu_only_cluster(num_nodes=4)
    return ElasticRecPlanner(cluster).plan(microbenchmark(num_tables=2), target_qps=30.0)


@pytest.fixture(scope="module")
def pattern():
    return TrafficPattern.constant(25.0, duration_s=240.0)


def _spec(capacity_rows: int, locality: float = 0.9, hcf: float = 0.25) -> CacheSpec:
    distribution = ZipfDistribution.from_locality(ROWS, locality)
    model = SkewedCostModel(distribution, POOLING, hot_cost_fraction=hcf)
    return CacheSpec(
        distribution,
        capacity_rows=capacity_rows,
        hot_rows=model.hot_rank_limit,
        hit_cost_fraction=model.hot_cost_fraction,
    )


class TestCacheSpec:
    def test_rejects_bad_arguments(self):
        distribution = ZipfDistribution.from_locality(ROWS, 0.9)
        with pytest.raises(ValueError, match="capacity_rows"):
            CacheSpec(distribution, capacity_rows=0, hot_rows=10, hit_cost_fraction=0.25)
        with pytest.raises(ValueError, match="hot_rows"):
            CacheSpec(distribution, capacity_rows=10, hot_rows=0, hit_cost_fraction=0.25)
        with pytest.raises(ValueError, match="hit_cost_fraction"):
            CacheSpec(distribution, capacity_rows=10, hot_rows=10, hit_cost_fraction=1.5)

    def test_empty_cache_hits_nothing(self):
        spec = _spec(1000)
        assert spec.hit_fractions(0.0) == (0.0, 0.0)
        assert spec.hit_fractions(-5.0) == (0.0, 0.0)

    def test_hit_fractions_monotone_in_fill(self):
        spec = _spec(5000)
        fills = np.linspace(0.0, 5000.0, 64)
        hot = [spec.hit_fractions(f)[0] for f in fills]
        cold = [spec.hit_fractions(f)[1] for f in fills]
        assert all(b >= a for a, b in zip(hot, hot[1:]))
        assert all(b >= a for a, b in zip(cold, cold[1:]))
        assert 0.0 <= hot[-1] <= 1.0 and 0.0 <= cold[-1] <= 1.0

    def test_full_table_capacity_hits_everything_exactly(self):
        # Capacity at (or beyond) the table size: the grid endpoint is
        # forced to exactly 1.0, not "approximately" — the warm-cache cost
        # contract below depends on it.
        for capacity in (ROWS, 3 * ROWS):
            spec = _spec(capacity)
            assert spec.hit_fractions(float(spec.capacity_eff)) == (1.0, 1.0)

    def test_capacity_capped_at_table_size(self):
        spec = _spec(10 * ROWS)
        assert spec.capacity_rows == 10 * ROWS
        assert spec.capacity_eff == ROWS


class TestReplicaCache:
    def test_starts_cold(self):
        cache = ReplicaCache(_spec(1000))
        assert cache.fill_rows == 0.0
        assert cache.fill_fraction == 0.0
        assert cache.hit_rate(10.0, 20.0) == 0.0

    def test_serve_admits_missed_rows_up_to_capacity(self):
        cache = ReplicaCache(_spec(100))
        first = cache.serve(10.0, 20.0)
        assert first == 0.0
        assert cache.fill_rows == pytest.approx(30.0)
        for _ in range(100):
            cache.serve(10.0, 20.0)
        assert cache.fill_rows <= cache.spec.capacity_eff

    def test_hit_rate_climbs_as_the_cache_warms(self):
        cache = ReplicaCache(_spec(5000))
        rates = [cache.serve(10.0, 20.0) for _ in range(300)]
        assert rates[0] == 0.0
        assert rates[-1] > 0.2
        # Monotone non-decreasing: fill only grows and hit fractions are
        # monotone in fill.
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_zero_gathers_serve_is_a_noop(self):
        cache = ReplicaCache(_spec(1000))
        assert cache.serve(0.0, 0.0) == 0.0
        assert cache.fill_rows == 0.0

    def test_warm_full_cache_hits_every_gather(self):
        cache = ReplicaCache(_spec(ROWS))
        cache.warm()
        assert cache.fill_fraction == 1.0
        assert cache.hit_rate(10.0, 20.0) == 1.0
        assert cache.serve(3.0, 7.0) == 1.0

    def test_invalidate_drops_everything(self):
        cache = ReplicaCache(_spec(1000))
        for _ in range(50):
            cache.serve(10.0, 20.0)
        assert cache.fill_rows > 0.0
        cache.invalidate()
        assert cache.fill_rows == 0.0
        assert cache.hit_rate(10.0, 20.0) == 0.0


class TestPriceAdmitSplit:
    """PR8 split ``serve`` into a pure pricing read plus an admission write.

    The engine's inline hot path and the crash-requeue repricing both lean
    on the split: ``price`` must not mutate, ``admit`` must apply the one
    shared admission rule, and their composition must reproduce ``serve``
    bit-for-bit.
    """

    def test_price_is_pure(self):
        cache = ReplicaCache(_spec(1000))
        for _ in range(20):
            cache.serve(10.0, 20.0)
        fill = cache.fill_rows
        first = cache.price(10.0, 20.0)
        assert cache.fill_rows == fill
        assert cache.price(10.0, 20.0) == first

    def test_price_returns_exact_hits_not_a_rounded_product(self):
        # hits is carried alongside the rate because rate * total does not
        # round back to hits in floating point.
        cache = ReplicaCache(_spec(5000))
        for _ in range(30):
            cache.serve(7.0, 13.0)
        rate, hits = cache.price(7.0, 13.0)
        assert rate == hits / 20.0
        assert 0.0 < hits < 20.0

    def test_serve_is_price_then_admit(self):
        served = ReplicaCache(_spec(600))
        split = ReplicaCache(_spec(600))
        for _ in range(200):
            expected = served.serve(10.0, 20.0)
            rate, hits = split.price(10.0, 20.0)
            split.admit(30.0, hits)
            assert rate == expected
            assert split.fill_rows == served.fill_rows

    def test_admit_clamps_at_capacity(self):
        cache = ReplicaCache(_spec(100))
        cache.admit(1e9, 0.0)
        assert cache.fill_rows == cache.spec.capacity_eff

    def test_zero_gathers_price_is_a_noop_read(self):
        cache = ReplicaCache(_spec(1000))
        assert cache.price(0.0, 0.0) == (0.0, 0.0)
        assert cache.fill_rows == 0.0


class TestCacheAdjustedMultiplier:
    def test_zero_hit_rate_is_the_identity(self):
        for multiplier in (0.25, 1.0, 7.125):
            assert cache_adjusted_multiplier(multiplier, 0.0, 0.25) == multiplier

    def test_full_hit_rate_is_exactly_the_hot_cost_fraction(self):
        # IEEE-exact product, not the generic formula: the warm-cache
        # bit-exactness contract (capacity >= table ==> cost is exactly
        # hit_cost_fraction * multiplier).
        for multiplier in (0.3, 1.0, 2.7):
            for hcf in (0.0, 0.25, 0.6, 1.0):
                assert cache_adjusted_multiplier(multiplier, 1.0, hcf) == multiplier * hcf

    def test_partial_hit_rate_interpolates(self):
        assert cache_adjusted_multiplier(2.0, 0.5, 0.25) == pytest.approx(
            2.0 * (1.0 - 0.5 * 0.75)
        )

    def test_rejects_out_of_range_inputs(self):
        with pytest.raises(ValueError):
            cache_adjusted_multiplier(1.0, -0.1, 0.25)
        with pytest.raises(ValueError):
            cache_adjusted_multiplier(1.0, 1.5, 0.25)
        with pytest.raises(ValueError):
            cache_adjusted_multiplier(1.0, 0.5, 1.5)


class TestEngineWithCaches:
    def test_cache_off_is_bit_exact_with_uncached_engine(self, plan, pattern):
        baseline = ServingEngine(plan, seed=0, cost_model="skewed").run(pattern)
        explicit_zero = ServingEngine(
            plan, seed=0, cost_model="skewed", cache_mb=0.0
        ).run(pattern)
        assert explicit_zero.digest() == baseline.digest()
        assert explicit_zero.cache_hit_rate == {}
        assert explicit_zero.cache_mb == 0.0

    def test_capacity_rounding_to_zero_rows_is_bit_exact_too(self, plan, pattern):
        # A cache smaller than one embedding row holds nothing: same engine,
        # same digest.
        baseline = ServingEngine(plan, seed=0, cost_model="skewed").run(pattern)
        sub_row = ServingEngine(
            plan, seed=0, cost_model="skewed", cache_mb=1e-7
        ).run(pattern)
        assert sub_row.digest() == baseline.digest()
        assert sub_row.cache_hit_rate == {}

    def test_cached_run_records_hit_rate_series(self, plan, pattern):
        result = ServingEngine(
            plan, seed=0, cost_model="skewed", cache_mb=64.0
        ).run(pattern)
        assert result.cache_mb == 64.0
        assert result.cache_hit_rate
        assert set(result.cache_hit_rate) <= set(result.replica_counts)
        for series in result.cache_hit_rate.values():
            assert series.shape == result.sample_times.shape
            assert series.min() >= 0.0 and series.max() <= 1.0
            # Cold start, then warm-up: the steady tail beats the first
            # sampled interval.
            assert series[-1] > series[0]

    def test_hit_rate_grows_with_capacity(self, plan, pattern):
        def steady_rate(cache_mb: float) -> float:
            result = ServingEngine(
                plan, seed=0, cost_model="skewed", cache_mb=cache_mb
            ).run(pattern)
            tail = [s[s.size // 2 :] for s in result.cache_hit_rate.values()]
            return float(np.mean(np.concatenate(tail)))

        rates = [steady_rate(cache_mb) for cache_mb in (0.25, 4.0, 64.0)]
        assert rates[0] < rates[1] < rates[2]

    def test_cached_run_is_seed_deterministic(self, plan, pattern):
        def digest():
            return ServingEngine(
                plan, seed=3, cost_model="skewed", cache_mb=16.0, faults="crash-storm"
            ).run(pattern).digest()

        assert digest() == digest()

    def test_homogeneous_cost_model_rejected_with_hint(self, plan):
        with pytest.raises(ValueError, match="skewed"):
            ServingEngine(plan, seed=0, cache_mb=64.0)

    def test_negative_cache_rejected(self, plan):
        with pytest.raises(ValueError, match="non-negative"):
            ServingEngine(plan, seed=0, cost_model="skewed", cache_mb=-1.0)

    def test_invalidate_caches_drops_every_replica_fill(self, plan, pattern):
        engine = ServingEngine(plan, seed=0, cost_model="skewed", cache_mb=64.0)
        engine.run(pattern)
        runtime = engine._runtimes[0]
        cached = [lane.pool for lane in runtime._lanes if lane.cached]
        fills = [fill for pool in cached for fill in pool.refresh().fill_rows]
        assert fills and max(fills) > 0.0
        runtime.invalidate_caches()
        for pool in cached:
            assert pool.refresh().fill_rows == [0.0] * pool.size

    def test_crash_replacement_restarts_cold_and_warms_back(self, plan):
        # Crash a replica of one embedding deployment mid-run: the lane's
        # hit-rate series dips when the cold replacement arrives and climbs
        # back toward steady state as it warms.
        pattern = TrafficPattern.constant(25.0, duration_s=600.0)
        target = next(
            d.name for d in plan.deployments if "table" in d.name
        )
        result = ServingEngine(
            plan,
            seed=0,
            cost_model="skewed",
            cache_mb=64.0,
            faults=f"crash@300:deployment={target}",
        ).run(pattern)
        series = result.cache_hit_rate[target]
        crash_index = int(np.searchsorted(result.sample_times, 300.0))
        pre_crash = series[crash_index - 1]
        post = series[crash_index:]
        dip = float(post.min())
        assert dip < pre_crash, "the cold replacement never showed up in the series"
        assert post[-1] > dip, "the replacement's hit rate never climbed back"
        # Monotone recovery from the dip to the end of the run.
        dip_index = int(post.argmin())
        recovery = post[dip_index:]
        assert recovery[-1] >= 0.9 * pre_crash or recovery[-1] > recovery[0]


# ----------------------------------------------------------------------
# Differential check: the pool's cached pricing vs the ReplicaCache rule
# ----------------------------------------------------------------------
@pytest.fixture
def priced(monkeypatch):
    """Every price a cached replica is charged, in call order, as
    ``(replica name, cost, hot, cold, multiplier)``.

    Both serving paths price a cached lane's query through one method,
    ``ReplicaPool.cached_price``: the per-query dispatch loop and the
    lane-by-lane drain kernel (which never calls ``ReplicaServer.submit``).
    A twin lane, whose kernel inputs equal an earlier lane's in the same
    chunk, takes that lane's outcome through ``copy_least_work`` instead;
    its replicas are charged the primary's prices of that call, re-emitted
    here under the twin's replica names.
    """
    calls = []
    spans = {}
    cached_price = ReplicaPool.cached_price
    serve_least_work = engine_module.serve_least_work
    copy_least_work = engine_module.copy_least_work

    def recording_price(pool, index, cost, hot, cold, total):
        multiplier, hits = cached_price(pool, index, cost, hot, cold, total)
        calls.append((pool.servers[index].name, cost, hot, cold, multiplier))
        return multiplier, hits

    def recording_kernel(servers, *args):
        start = len(calls)
        completions = serve_least_work(servers, *args)
        spans[id(servers)] = (start, len(calls))
        return completions

    def recording_copy(primary, marks, twins):
        copy_least_work(primary, marks, twins)
        start, stop = spans[id(primary)]
        names = {server.name: twin.name for server, twin in zip(primary, twins)}
        calls.extend((names[name], *price) for name, *price in calls[start:stop])

    monkeypatch.setattr(ReplicaPool, "cached_price", recording_price)
    monkeypatch.setattr(engine_module, "serve_least_work", recording_kernel)
    monkeypatch.setattr(engine_module, "copy_least_work", recording_copy)
    return calls


class TestInlinePricingMatchesReference:
    """Replay a cached run's prices through one ``ReplicaCache`` per replica.

    The engine never holds ``ReplicaCache`` objects: it prices against
    ``ReplicaPool.fill_rows``.  Every multiplier it charges a cached
    replica must equal ``cache_adjusted_multiplier`` over a reference cache
    that has served exactly that replica's queries (starting cold), and
    every final pool fill must equal its reference fill, float for float.
    """

    @pytest.mark.parametrize(
        "cache_mb, routing, faults, seed",
        [
            (64.0, "least-work", None, 0),
            # Fills pin at capacity: both warm fast paths (the whole pool and
            # a single replica) take over.
            (0.5, "least-work", None, 1),
            # Cold replacements, crash requeues and pool rebuilds.
            (4.0, "round-robin", "crash-storm", 2),
            (16.0, "recovery-aware", "crash-storm", 3),
        ],
    )
    def test_every_cached_submit_matches_the_reference(
        self, plan, priced, cache_mb, routing, faults, seed
    ):
        pattern = build_scenario("diurnal", 10, 40, 300, seed=seed)
        engine = ServingEngine(
            plan,
            seed=seed,
            routing=routing,
            cost_model="skewed",
            cache_mb=cache_mb,
            faults=faults,
        )
        result = engine.run(pattern)
        runtime = engine._runtimes[0]
        spec = runtime.cache_spec
        # Every price is charged on some query's own cost and gather split.
        queries = set(
            zip(
                runtime.query_multipliers.tolist(),
                runtime.query_hot.tolist(),
                runtime.query_cold.tolist(),
            )
        )
        references: dict[str, ReplicaCache] = {}
        for name, cost, hot, cold, multiplier in priced:
            assert (cost, hot, cold) in queries, name
            reference = references.setdefault(name, ReplicaCache(spec))
            hit_rate = reference.serve(hot, cold)
            expected = cache_adjusted_multiplier(cost, hit_rate, spec.hit_cost_fraction)
            assert multiplier == expected, name
        assert len(priced) > 10_000
        for lane in runtime._lanes:
            if lane.cached:
                pool = lane.pool.refresh()
                for index, server in enumerate(pool.servers):
                    reference = references.get(server.name, ReplicaCache(spec))
                    assert pool.fill_rows[index] == reference.fill_rows, server.name
        if faults is not None:
            assert result.faults_injected > 0
