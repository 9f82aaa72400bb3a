"""Differential test: the serving engine against the independent oracle.

``oracle.py`` re-derives fixed-fleet FIFO serving from the model alone.  On
every configuration it covers — least-work or round-robin routing, the
plan's replica counts or a uniform override, homogeneous or skewed costs,
disaggregated or monolithic plans — the engine must reproduce its
per-query completion times and latencies exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracle import ROUTINGS, simulate  # noqa: E402

from repro.core.baseline import ModelWisePlanner  # noqa: E402
from repro.core.planner import ElasticRecPlanner  # noqa: E402
from repro.hardware.specs import cpu_only_cluster  # noqa: E402
from repro.model.configs import microbenchmark  # noqa: E402
from repro.serving.engine import ServingEngine  # noqa: E402
from repro.serving.scenarios import build_scenario, scenario_names  # noqa: E402

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
