"""Elastic scaling under fluctuating traffic (the Figure 19 scenario).

A reduced-scale RM1 deployment is driven by the paper's dynamic traffic
profile: the query rate ramps up in five steps, stays at its peak, then drops.
Kubernetes-style HPA scales the shard replicas of the ElasticRec deployment
and the whole-model replicas of the model-wise baseline.  The example prints
a per-minute timeline of target vs achieved QPS, allocated memory and p95
latency for both systems, plus the aggregate SLA-violation statistics.  A
final table compares replica-routing policies for the ElasticRec deployment
under a flash-crowd scenario from the traffic-scenario library.

Run with ``python examples/autoscaling_traffic.py``.
"""

from __future__ import annotations

from repro import ElasticRecPlanner, ModelWisePlanner, cpu_only_cluster, rm1
from repro.analysis import format_table
from repro.serving import (
    ServingEngine,
    build_scenario,
    paper_dynamic_pattern,
    routing_policy_names,
)

BASE_QPS = 18.0
PEAK_QPS = 90.0
DURATION_S = 900.0
NUM_TABLES = 4  # reduced from RM1's ten tables to keep the example quick
NUM_NODES = 8  # reduced fleet so the traffic peak sits near model-wise capacity


def main() -> None:
    cluster = cpu_only_cluster(num_nodes=NUM_NODES)
    workload = rm1().scaled_tables(NUM_TABLES).with_name("RM1-reduced")
    pattern = paper_dynamic_pattern(
        base_qps=BASE_QPS, peak_qps=PEAK_QPS, duration_s=DURATION_S
    )

    results = {}
    for label, planner in (
        ("elasticrec", ElasticRecPlanner(cluster)),
        ("model-wise", ModelWisePlanner(cluster)),
    ):
        plan = planner.plan(workload, BASE_QPS)
        results[label] = ServingEngine(plan, seed=3).run(pattern)

    rows = []
    for label, result in results.items():
        for index in range(0, result.sample_times.size, 4):
            rows.append(
                {
                    "strategy": label,
                    "minute": result.sample_times[index] / 60.0,
                    "target_qps": result.target_qps[index],
                    "achieved_qps": result.achieved_qps[index],
                    "memory_gb": result.memory_gb[index],
                    "p95_ms": result.p95_latency_ms[index],
                }
            )
    print(format_table(rows, title="Dynamic-traffic timeline (one row per simulated minute)"))

    print()
    summary_rows = []
    for label, result in results.items():
        summary = result.summary()
        summary_rows.append(
            {
                "strategy": label,
                "peak_memory_gb": summary["peak_memory_gb"],
                "mean_latency_ms": summary["mean_latency_ms"],
                "p95_latency_ms": summary["p95_latency_ms"],
                "sla_violations_pct": 100.0 * summary["sla_violation_fraction"],
            }
        )
    print(format_table(summary_rows, title="Aggregate behaviour over the whole run"))
    ratio = (
        results["model-wise"].peak_memory_gb / results["elasticrec"].peak_memory_gb
    )
    print(f"\npeak-memory ratio (model-wise / ElasticRec): {ratio:.1f}x "
          "(the paper reports 3.1x at peak for the full-scale RM1 run)")

    print()
    # A sharp spike to 2.5x the provisioned base rate: brutal enough that the
    # autoscaler's cold starts matter, mild enough that routing choices show.
    flash = build_scenario(
        "flash-crowd", base_qps=BASE_QPS, peak_qps=2.5 * BASE_QPS, duration_s=DURATION_S
    )
    routing_rows = []
    plan = ElasticRecPlanner(cluster).plan(workload, BASE_QPS)
    for routing in routing_policy_names():
        result = ServingEngine(plan, routing=routing, seed=3).run(flash)
        summary = result.summary()
        routing_rows.append(
            {
                "routing": routing,
                "mean_latency_ms": summary["mean_latency_ms"],
                "p95_latency_ms": summary["p95_latency_ms"],
                "sla_violations_pct": 100.0 * summary["sla_violation_fraction"],
            }
        )
    print(format_table(
        routing_rows,
        title="ElasticRec routing policies under a flash-crowd scenario",
    ))


if __name__ == "__main__":
    main()
