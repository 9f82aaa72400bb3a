"""Differential test: the serving engine against the independent oracle.

``oracle.py`` re-derives fixed-fleet FIFO serving from the model alone.  On
every configuration it covers — least-work or round-robin routing, the
plan's replica counts or a uniform override, homogeneous or skewed costs,
disaggregated or monolithic plans — the engine must reproduce its
per-query completion times and latencies exactly.  Metamorphic
properties ride along on fixed least-work lanes: adding a replica never
delays a query, stretching every service time never shortens one, and
shifting every arrival by a whole number of sample intervals shifts every
completion by the same amount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracle import ROUTINGS, SAMPLE_INTERVAL_S, simulate  # noqa: E402

from repro.core.baseline import ModelWisePlanner  # noqa: E402
from repro.core.planner import ElasticRecPlanner  # noqa: E402
from repro.hardware.specs import cpu_only_cluster  # noqa: E402
from repro.model.configs import microbenchmark  # noqa: E402
from repro.serving.engine import EventKind, ServingEngine, _TenantRuntime  # noqa: E402
from repro.serving.scenarios import build_scenario, scenario_names  # noqa: E402
from repro.serving.traffic import TrafficPattern  # noqa: E402

_CLUSTER = cpu_only_cluster(num_nodes=4)
_MODEL = microbenchmark(num_tables=2)
_PLANS = {
    "elasticrec": ElasticRecPlanner(_CLUSTER).plan(_MODEL, target_qps=30.0),
    "model-wise": ModelWisePlanner(_CLUSTER).plan(_MODEL, 30.0),
}


@given(
    strategy=st.sampled_from(sorted(_PLANS)),
    routing=st.sampled_from(ROUTINGS),
    cost_model=st.sampled_from(["homogeneous", "skewed"]),
    replicas=st.sampled_from([None, 1, 2, 3]),
    scenario=st.sampled_from(scenario_names()),
    peak_qps=st.floats(min_value=2.0, max_value=45.0),
    duration_s=st.sampled_from([30.0, 60.0, 90.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_engine_matches_the_oracle(
    strategy, routing, cost_model, replicas, scenario, peak_qps, duration_s, seed
):
    plan = _PLANS[strategy]
    pattern = build_scenario(scenario, peak_qps / 3.0, peak_qps, duration_s, seed=seed)
    result = ServingEngine(
        plan,
        routing=routing,
        autoscale=False,
        initial_replicas=replicas,
        seed=seed,
        cost_model=cost_model,
    ).run(pattern)
    completions, latencies = simulate(plan, pattern, seed, routing, cost_model, replicas)
    assert result.rejected_queries == 0
    assert np.array_equal(result.tracker.completion_times, completions)
    assert np.array_equal(result.tracker.latencies_s, latencies)


@pytest.mark.parametrize("cost_model", ["homogeneous", "skewed"])
@pytest.mark.parametrize("strategy", sorted(_PLANS))
def test_a_warm_fixed_fleet_serves_drains_lane_by_lane(monkeypatch, strategy, cost_model):
    """Least-work on warm fixed replicas: only each drain's popped arrival
    goes through ``serve_query``; the rest of the drain is served lane by
    lane, and every completion and latency still equals the oracle's."""
    plan = _PLANS[strategy]
    pattern = build_scenario("diurnal", 10.0, 30.0, 90.0, seed=5)
    served = []
    serve_query = _TenantRuntime.serve_query

    def counting_serve_query(runtime, arrival, *args):
        served.append(arrival)
        return serve_query(runtime, arrival, *args)

    monkeypatch.setattr(_TenantRuntime, "serve_query", counting_serve_query)
    popped = []

    def on_event(now, kind):
        if kind == EventKind.ARRIVAL:
            popped.append(now)

    result = ServingEngine(
        plan, routing="least-work", autoscale=False, seed=5, cost_model=cost_model
    ).run(pattern, on_event=on_event)
    completions, latencies = simulate(plan, pattern, 5, "least-work", cost_model)
    assert result.rejected_queries == 0
    assert served == popped
    assert len(served) < result.tracker.num_samples // 10
    assert np.array_equal(result.tracker.completion_times, completions)
    assert np.array_equal(result.tracker.latencies_s, latencies)


@given(
    strategy=st.sampled_from(sorted(_PLANS)),
    cost_model=st.sampled_from(["homogeneous", "skewed"]),
    replicas=st.sampled_from([1, 2]),
    scenario=st.sampled_from(scenario_names()),
    peak_qps=st.floats(min_value=2.0, max_value=45.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_adding_a_replica_never_delays_a_query(
    strategy, cost_model, replicas, scenario, peak_qps, seed
):
    """Kiefer-Wolfowitz monotonicity: on fixed least-work FIFO lanes, one
    more replica per lane leaves every query's latency equal or lower."""
    plan = _PLANS[strategy]
    pattern = build_scenario(scenario, peak_qps / 3.0, peak_qps, 60.0, seed=seed)
    fewer, more = (
        ServingEngine(
            plan,
            routing="least-work",
            autoscale=False,
            initial_replicas=count,
            seed=seed,
            cost_model=cost_model,
        ).run(pattern)
        for count in (replicas, replicas + 1)
    )
    assert fewer.rejected_queries == 0 and more.rejected_queries == 0
    assert np.all(more.tracker.latencies_s <= fewer.tracker.latencies_s)


@given(
    strategy=st.sampled_from(sorted(_PLANS)),
    cost_model=st.sampled_from(["homogeneous", "skewed"]),
    replicas=st.sampled_from([1, 2]),
    scenario=st.sampled_from(scenario_names()),
    peak_qps=st.floats(min_value=2.0, max_value=45.0),
    seed=st.integers(min_value=0, max_value=2**16),
    factor=st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
)
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_stretching_every_service_time_never_shortens_a_query(
    strategy, cost_model, replicas, scenario, peak_qps, seed, factor
):
    """On fixed least-work FIFO lanes of single-query batches, a
    degradation stretching every service time by ``factor`` for the whole
    run leaves every query's latency equal or higher."""
    plan = _PLANS[strategy]
    duration_s = 60.0
    pattern = build_scenario(scenario, peak_qps / 3.0, peak_qps, duration_s, seed=seed)
    base, stretched = (
        ServingEngine(
            plan,
            routing="least-work",
            autoscale=False,
            initial_replicas=replicas,
            max_batch=1,
            seed=seed,
            cost_model=cost_model,
            faults=faults,
        ).run(pattern)
        for faults in (None, f"degrade@0+{duration_s:g}:factor={factor!r}")
    )
    assert stretched.faults_injected == 1
    assert base.rejected_queries == 0 and stretched.rejected_queries == 0
    assert np.all(stretched.tracker.latencies_s >= base.tracker.latencies_s)


@dataclass(frozen=True)
class _Replay(TrafficPattern):
    """A traffic pattern that serves a fixed arrival vector."""

    times: tuple[float, ...] = ()

    def arrivals(self, rng: np.random.Generator) -> np.ndarray:
        return np.array(self.times, dtype=np.float64)


def _dyadic(plan):
    """``plan`` with a power-of-two per-replica QPS on every deployment and
    a power-of-two RPC overhead, so every service time is a binary fraction."""
    cluster = plan.cluster
    calibration = replace(cluster.calibration, rpc_overhead_cpu_s=2.0**-5)
    return replace(
        plan,
        cluster=replace(cluster, calibration=calibration),
        deployments=tuple(
            replace(d, per_replica_qps=2.0 ** round(math.log2(d.per_replica_qps)))
            for d in plan.deployments
        ),
    )


@given(
    strategy=st.sampled_from(sorted(_PLANS)),
    replicas=st.sampled_from([1, 2]),
    scenario=st.sampled_from(scenario_names()),
    peak_qps=st.floats(min_value=2.0, max_value=45.0),
    seed=st.integers(min_value=0, max_value=2**16),
    shift_intervals=st.integers(min_value=1, max_value=3),
)
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_shifting_every_arrival_shifts_every_completion(
    strategy, replicas, scenario, peak_qps, seed, shift_intervals
):
    """Time invariance: on fixed least-work lanes with the HPA off, arrivals
    moved ``shift_s`` later complete exactly ``shift_s`` later, with equal
    latencies.  Arrivals sit on a 1/8 s grid, the shift is a whole number
    of sample intervals and (with homogeneous costs) every service time is
    a power of two, so every sum the engine forms is exact in float64."""
    plan = _dyadic(_PLANS[strategy])
    duration_s = 60.0
    shift_s = shift_intervals * SAMPLE_INTERVAL_S
    pattern = build_scenario(scenario, peak_qps / 3.0, peak_qps, duration_s, seed=seed)
    arrivals = np.floor(pattern.arrivals(np.random.default_rng(seed)) * 8.0) / 8.0
    base, shifted = (
        ServingEngine(
            plan,
            routing="least-work",
            autoscale=False,
            initial_replicas=replicas,
            seed=seed,
        ).run(_Replay(pattern.phases, duration_s + offset, tuple(arrivals + offset)))
        for offset in (0.0, shift_s)
    )
    assert base.rejected_queries == 0 and shifted.rejected_queries == 0
    assert base.tracker.num_samples == shifted.tracker.num_samples == arrivals.size
    assert np.array_equal(
        shifted.tracker.completion_times, base.tracker.completion_times + shift_s
    )
    assert np.array_equal(shifted.tracker.latencies_s, base.tracker.latencies_s)
