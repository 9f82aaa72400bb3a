"""Figure 19: behaviour under dynamically fluctuating input query traffic.

RM1 is served on the CPU-only cluster while the input traffic rises in five
increments (minutes 5 to 20) and falls again at minute 24; Kubernetes HPA
scales replicas in and out.  The paper's observations, reproduced here:

* ElasticRec tracks the target QPS quickly after every traffic change while
  the model-wise baseline lags (its replicas take far longer to initialise
  because each must load the whole model);
* the baseline's allocated memory is much higher (3.1x at peak in the paper);
* the baseline exhibits more frequent tail-latency spikes that violate the
  400 ms SLA.

The default parameters are scaled down (fewer tables, fewer nodes, shorter
run, lower peak) so the experiment finishes in seconds; pass ``full=True``
for the full RM1 / 30-minute configuration.  In both modes the peak query
rate is chosen relative to this reproduction's calibrated per-replica
throughput so that, as in the paper, the traffic peak sits near the fleet's
model-wise capacity; the paper's absolute 250 QPS peak reflects its faster
physical testbed.
"""

from __future__ import annotations

import numpy as np

from repro.core.baseline import ModelWisePlanner
from repro.core.planner import ElasticRecPlanner
from repro.experiments.base import ExperimentResult
from repro.experiments.common import cluster_for_system
from repro.model.configs import rm1
from repro.serving.engine import ServingEngine, SimulationResult
from repro.serving.traffic import paper_dynamic_pattern
from repro.hardware.specs import ClusterSpec
from repro.model.configs import DLRMConfig

__all__ = ["run"]


def _simulate(
    plan, pattern, seed: int, sample_interval_s: float, routing: str = "least-work"
) -> SimulationResult:
    engine = ServingEngine(
        plan, seed=seed, sample_interval_s=sample_interval_s, routing=routing
    )
    return engine.run(pattern)


def _series_rows(result: SimulationResult, stride: int) -> list[dict[str, float]]:
    rows = []
    for index in range(0, result.sample_times.size, stride):
        rows.append(
            {
                "strategy": result.strategy,
                "time_min": float(result.sample_times[index]) / 60.0,
                "target_qps": float(result.target_qps[index]),
                "achieved_qps": float(result.achieved_qps[index]),
                "memory_gb": float(result.memory_gb[index]),
                "p95_latency_ms": float(result.p95_latency_ms[index]),
            }
        )
    return rows


def run(
    full: bool = False,
    seed: int = 0,
    workload: DLRMConfig | None = None,
    cluster: ClusterSpec | None = None,
    routing: str = "least-work",
) -> ExperimentResult:
    """Regenerate Figure 19 (reduced scale by default, ``full=True`` for paper scale).

    ``routing`` selects the replica-routing policy both systems use (see
    :data:`repro.serving.routing.ROUTING_POLICIES`); the paper's setup
    corresponds to the default ``least-work``.
    """
    if cluster is None:
        cluster = cluster_for_system("cpu")
        if not full:
            cluster = cluster.with_nodes(8)
    if workload is None:
        workload = rm1() if full else rm1().scaled_tables(4).with_name("RM1-reduced")
    if full:
        base_qps, peak_qps, duration_s = 25.0, 125.0, 1800.0
    else:
        base_qps, peak_qps, duration_s = 18.0, 90.0, 900.0
    pattern = paper_dynamic_pattern(base_qps=base_qps, peak_qps=peak_qps, duration_s=duration_s)

    elastic_plan = ElasticRecPlanner(cluster).plan(workload, base_qps)
    baseline_plan = ModelWisePlanner(cluster).plan(workload, base_qps)
    elastic = _simulate(elastic_plan, pattern, seed, sample_interval_s=15.0, routing=routing)
    baseline = _simulate(baseline_plan, pattern, seed, sample_interval_s=15.0, routing=routing)

    stride = 4  # one row per simulated minute
    rows = _series_rows(elastic, stride) + _series_rows(baseline, stride)
    summary = {
        "elasticrec_peak_memory_gb": elastic.peak_memory_gb,
        "model_wise_peak_memory_gb": baseline.peak_memory_gb,
        "peak_memory_ratio": baseline.peak_memory_gb / elastic.peak_memory_gb,
        "paper_peak_memory_ratio": 3.1,
        "elasticrec_sla_violation_fraction": elastic.sla_violation_fraction(),
        "model_wise_sla_violation_fraction": baseline.sla_violation_fraction(),
        "elasticrec_mean_latency_ms": elastic.mean_latency_ms,
        "model_wise_mean_latency_ms": baseline.mean_latency_ms,
        "achieved_qps_tracking_gap_elasticrec": float(
            np.mean(np.maximum(elastic.target_qps - elastic.achieved_qps, 0.0))
        ),
        "achieved_qps_tracking_gap_model_wise": float(
            np.mean(np.maximum(baseline.target_qps - baseline.achieved_qps, 0.0))
        ),
    }
    return ExperimentResult(
        experiment_id="fig19",
        title="QPS, memory and tail latency under fluctuating input traffic",
        rows=rows,
        summary=summary,
        notes=(
            "Rows are one-minute samples of both systems' time series.  The baseline "
            "allocates far more memory at peak, lags the target QPS after traffic "
            "changes (slow whole-model replica start-up) and violates the 400 ms SLA "
            "more often."
        ),
    )
