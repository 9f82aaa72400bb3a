"""Property-based engine invariants across random scenario/routing/fault mixes.

Three invariants must hold for *every* configuration the engine accepts, not
just the hand-picked ones in the example-based tests:

* conservation — completions + rejections + drops == arrivals;
* monotonicity — the event loop pops events in non-decreasing timestamp
  order, and every recorded completion happens at or after time zero with a
  non-negative latency;
* determinism — the same seed yields a byte-identical result digest.

Hypothesis draws the configurations; ``derandomize=True`` keeps CI stable
(the same example set runs every time).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.planner import ElasticRecPlanner  # noqa: E402
from repro.hardware.specs import cpu_only_cluster  # noqa: E402
from repro.model.configs import microbenchmark, rm1  # noqa: E402
from repro.serving.engine import EventKind, ServingEngine  # noqa: E402
from repro.serving.faults import fault_scenario_names  # noqa: E402
from repro.serving.routing import routing_policy_names  # noqa: E402
from repro.serving.scenarios import build_scenario, scenario_names  # noqa: E402

_PLAN = ElasticRecPlanner(cpu_only_cluster(num_nodes=4)).plan(
    microbenchmark(num_tables=2), target_qps=30.0
)

_FAULT_SPECS = fault_scenario_names() + [
    "crash@20:policy=drop;crash@45:policy=drop",
    "drain@30+40:node=0",
    "straggler@15+30:factor=6;degrade@50+20:factor=3",
    "crashes@0:rate=2.0,policy=drop",
]

_CONFIGS = st.tuples(
    st.sampled_from(scenario_names()),
    st.sampled_from(routing_policy_names()),
    st.sampled_from(_FAULT_SPECS),
    st.integers(min_value=0, max_value=2**16),
)

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run(scenario, routing, faults, seed, on_event=None):
    pattern = build_scenario(scenario, 8.0, 24.0, 90.0, seed=seed)
    engine = ServingEngine(_PLAN, routing=routing, seed=seed, faults=faults)
    return engine.run(pattern, on_event=on_event)


class TestConservation:
    @given(config=_CONFIGS)
    @settings(**_SETTINGS)
    def test_completions_rejections_and_drops_partition_arrivals(self, config):
        result = _run(*config)
        arrivals = result.tracker.num_samples
        assert (
            result.completed_queries + result.rejected_queries + result.dropped_queries
            == arrivals
        )
        assert result.completed_queries >= 0
        assert 0.0 <= result.availability_fraction <= 1.0
        for series in result.availability.values():
            assert series.min() >= 0.0 and series.max() <= 1.0
        for series in result.requeues.values():
            assert series.min() >= 0


class TestMonotonicity:
    @given(config=_CONFIGS)
    @settings(**_SETTINGS)
    def test_event_timestamps_never_move_backwards(self, config):
        times: list[float] = []
        kinds: list[int] = []
        result = _run(*config, on_event=lambda now, kind: (times.append(now), kinds.append(kind)))
        assert times, "the run popped no events"
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert {EventKind(k) for k in kinds} <= set(EventKind)
        # Recorded completions are physical: non-negative latency, and the
        # sample grid the series were drawn on is strictly increasing.
        assert (result.tracker.latencies_s >= 0.0).all()
        sample_times = result.sample_times
        assert all(b > a for a, b in zip(sample_times, sample_times[1:]))


class TestArrivalDrain:
    """An arrival drain ends only where another heap event must pop first."""

    @pytest.mark.parametrize("routing", ["recovery-aware", "least-outstanding"])
    def test_no_two_arrival_pops_are_adjacent(self, routing):
        # Brownout plus the SLO ladder: armed deadlines schedule TIMEOUTs
        # mid-drain, which least-outstanding serves query by query.
        engine = ServingEngine(
            ElasticRecPlanner(cpu_only_cluster()).plan(rm1(), 18.0),
            routing=routing,
            cost_model="skewed",
            faults="degrade@60+120:factor=2.0",
            slo="p95@1.5:p99=2.5,shed=0.1,retries=2",
        )
        kinds: list[int] = []
        result = engine.run(
            build_scenario("constant", 18, 90, 240, seed=0),
            on_event=lambda now, kind: kinds.append(kind),
        )
        assert result.watchdog_series["level"].max() >= 2, "deadlines never armed"
        adjacent = sum(
            a == b == EventKind.ARRIVAL for a, b in zip(kinds, kinds[1:])
        )
        assert adjacent == 0


_CACHE_CONFIGS = st.tuples(
    st.sampled_from(scenario_names()),
    st.sampled_from(routing_policy_names()),
    st.sampled_from(_FAULT_SPECS),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from((0.25, 4.0, 64.0)),
)


def _run_cached(scenario, routing, faults, seed, cache_mb):
    pattern = build_scenario(scenario, 8.0, 24.0, 90.0, seed=seed)
    engine = ServingEngine(
        _PLAN,
        routing=routing,
        seed=seed,
        faults=faults,
        cost_model="skewed",
        cache_mb=cache_mb,
    )
    return engine.run(pattern)


class TestCachedInvariants:
    """The engine invariants must survive per-replica caches — including the
    cold restart a crash replacement goes through (every fault spec here
    crashes or drains replicas mid-run)."""

    @given(config=_CACHE_CONFIGS)
    @settings(**{**_SETTINGS, "max_examples": 10})
    def test_conservation_and_bounded_hit_rates_with_caches_on(self, config):
        result = _run_cached(*config)
        arrivals = result.tracker.num_samples
        assert (
            result.completed_queries + result.rejected_queries + result.dropped_queries
            == arrivals
        )
        assert result.cache_hit_rate, "cached run recorded no hit-rate series"
        for series in result.cache_hit_rate.values():
            assert series.min() >= 0.0 and series.max() <= 1.0

    @given(config=_CACHE_CONFIGS)
    @settings(**{**_SETTINGS, "max_examples": 10})
    def test_same_seed_means_identical_digest_with_caches_on(self, config):
        assert _run_cached(*config).digest() == _run_cached(*config).digest()


class TestSeedDeterminism:
    @given(config=_CONFIGS)
    @settings(**_SETTINGS)
    def test_same_seed_means_identical_digest(self, config):
        assert _run(*config).digest() == _run(*config).digest()

    @given(
        scenario=st.sampled_from(scenario_names()),
        routing=st.sampled_from(routing_policy_names()),
    )
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_fault_free_spec_never_perturbs_the_run(self, scenario, routing):
        # "none" and a script whose events all land past the run end must
        # both be byte-identical with a fault-unaware engine run.
        baseline = _run(scenario, routing, None, 11).digest()
        assert _run(scenario, routing, "none", 11).digest() == baseline
        assert _run(scenario, routing, "crash@99999", 11).digest() == baseline
