"""The benchmark's four workloads: how each is built, and how its output is checked.

Every workload is a batch job of fixed size: open-loop traffic in *simulated*
time, run to completion.  All four serve RM1 reduced to 4 tables.  The seed
only reaches the simulator through the specs built here (engine and tenant
seeds), so the same ``--seed`` always gives the same inputs.

``scale`` multiplies each workload's simulated duration (and the fault
windows with it); the benchmark always runs ``scale=1``, tests run tiny
scales through the same builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import rm1
from repro.parallel import spawn_seeds
from repro.serving.engine import ServingEngine, SimulationResult, TenantSpec
from repro.serving.scenarios import build_scenario
from repro.serving.sharding import run_sharded
from repro.serving.traffic import TrafficPattern, paper_dynamic_pattern

#: The ``watchdog`` experiment's availability-first SLO policy.
SLO_POLICY = (
    "p95@1.5:p99=8,availability=0.995,reject=0.02,patience=1,"
    "shed=0.0,deadline=20,timeout=6,retries=3,storm=0.5,recover=2"
)
#: Healthy regime: a run that misses the SLA on more queries than this is
#: overloaded, and its throughput would measure queueing, not the simulator.
MAX_SLA_VIOLATION = 0.10
MIN_HIT_RATE = 0.5
MIN_AVAILABILITY = 0.9
#: The watchdog ladder level at which per-query deadlines (and so one heap
#: event per arrival, timeouts and retries) are armed.
DEADLINE_LEVEL = 2
#: Rotated over the fleet's tenants, so the scalar ``select`` and
#: completion events are exercised alongside the vectorized policies.
FLEET_ROUTING = ("least-work", "least-outstanding", "power-of-two", "round-robin")


def plan_for_peak():
    """RM1 (4 tables) planned for the 220 QPS peak on 32 CPU nodes."""
    cluster = cpu_only_cluster(num_nodes=32)
    model = rm1().scaled_tables(4).with_name("RM1-bench4")
    return ElasticRecPlanner(cluster).plan(model, 220.0)


@dataclass
class Job:
    """A built workload, ready to run once.

    ``run(workdir)`` simulates and returns the per-tenant results; it may
    write only under ``workdir``.  ``traffic`` maps each tenant to the
    pattern and seed its arrivals are drawn from, so the checks can count
    arrivals without asking the simulator.
    """

    run: Callable[[Path], dict[str, SimulationResult]]
    traffic: dict[str, tuple[TrafficPattern, int]]


def _single(pattern: TrafficPattern, seed: int, **engine_options) -> Job:
    """One tenant: the peak plan on its own engine, serving ``pattern``."""
    plan = plan_for_peak()
    engine = ServingEngine(plan, seed=seed, **engine_options)
    return Job(
        run=lambda workdir: {plan.name: engine.run(pattern)},
        traffic={plan.name: (pattern, seed)},
    )


def build_diurnal_steady(seed: int, scale: float = 1.0) -> Job:
    return _single(paper_dynamic_pattern(60.0, 220.0, 1800.0 * scale), seed)


def build_cached_skewed(seed: int, scale: float = 1.0) -> Job:
    pattern = paper_dynamic_pattern(60.0, 220.0, 1800.0 * scale)
    return _single(pattern, seed, cost_model="skewed", cache_mb=64.0)


def incident_faults(duration_s: float) -> str:
    """A 2x brownout plus a crash storm, placed at fixed shares of the run."""
    start, brownout, storm = 0.3 * duration_s, 0.2 * duration_s, 0.3 * duration_s
    return (
        f"degrade@{start:g}+{brownout:g}:factor=2.0;"
        f"crashes@{start:g}+{storm:g}:rate=2.5,policy=drop"
    )


def build_incident_slo(seed: int, scale: float = 1.0) -> Job:
    # As in the ``watchdog`` experiment: fixed replicas (HPA off) and traffic
    # at half the planned peak.  With the HPA on, the incident's latency
    # spike scales the dense shard onto every free node, and armed retries
    # then hold the fleet in overload (availability 0.2-0.5) on most seeds.
    duration_s = 1800.0 * scale
    return _single(
        paper_dynamic_pattern(30.0, 110.0, duration_s),
        seed,
        routing="recovery-aware",
        autoscale=False,
        faults=incident_faults(duration_s),
        slo=SLO_POLICY,
    )


def build_fleet_streamed(seed: int, scale: float = 1.0) -> Job:
    plan = plan_for_peak()
    # One simulated hour keeps a round near 3 s, so a run's median is taken
    # over 4-7 rounds; the per-tick load (~19 queries) does not depend on it.
    duration_s = 3600.0 * scale
    tenants = [
        TenantSpec(
            name=f"tenant-{index}",
            plan=plan,
            pattern=build_scenario("diurnal", 0.5, 2.0, duration_s, seed=tenant_seed),
            routing=FLEET_ROUTING[index % len(FLEET_ROUTING)],
            seed=tenant_seed,
            max_replicas=4,
        )
        for index, tenant_seed in enumerate(spawn_seeds(seed, 8))
    ]

    def run(workdir: Path) -> dict[str, SimulationResult]:
        return run_sharded(tenants, workers=1, stream_dir=workdir / "spool").tenants

    return Job(run=run, traffic={t.name: (t.pattern, t.seed) for t in tenants})


def final_hit_rate(result: SimulationResult) -> float:
    """Mean over cached deployments of the last interval's hit rate."""
    if not result.cache_hit_rate:
        return 0.0
    return float(np.mean([series[-1] for series in result.cache_hit_rate.values()]))


def outcome(result: SimulationResult, pattern: TrafficPattern, seed: int) -> dict:
    """What the checks and the report need from one tenant's result.

    ``arrivals`` is drawn again from the tenant's seed, outside the engine:
    the engine draws its arrivals first from ``default_rng(seed)``, so the
    conservation check holds the engine to a count it did not produce.
    """
    levels = result.watchdog_series.get("level")
    return {
        "arrivals": int(pattern.arrivals(np.random.default_rng(seed)).size),
        "completions": int(result.completed_queries),
        "rejections": int(result.rejected_queries),
        "drops": int(result.dropped_queries),
        "timeouts": int(result.timeout_queries),
        "digest": result.digest(),
        "p95_ms": float(result.overall_p95_latency_ms),
        "sla_violation_frac": float(result.sla_violation_fraction()),
        "availability": float(result.availability_fraction),
        "hit_rate": final_hit_rate(result),
        "faults_injected": int(result.faults_injected),
        "retried_queries": int(result.retried_queries),
        "max_watchdog_level": int(levels.max()) if levels is not None and levels.size else 0,
    }


def check_conservation(tenants: dict[str, dict]) -> list[str]:
    """``completions + rejections + drops + timeouts == arrivals`` per tenant."""
    failures = []
    for name, t in tenants.items():
        parts = (t["completions"], t["rejections"], t["drops"], t["timeouts"])
        if min(parts) < 0 or sum(parts) != t["arrivals"]:
            failures.append(
                f"{name}: completions {parts[0]} + rejections {parts[1]} + drops "
                f"{parts[2]} + timeouts {parts[3]} != arrivals {t['arrivals']}"
            )
    return failures


def _healthy(tenants: dict[str, dict]) -> list[str]:
    return [
        f"{name}: SLA violations {t['sla_violation_frac']:.3f} > {MAX_SLA_VIOLATION}"
        for name, t in tenants.items()
        if t["sla_violation_frac"] > MAX_SLA_VIOLATION
    ]


def _cached_regime(tenants: dict[str, dict]) -> list[str]:
    return _healthy(tenants) + [
        f"{name}: final hit rate {t['hit_rate']:.3f} <= {MIN_HIT_RATE}"
        for name, t in tenants.items()
        if t["hit_rate"] <= MIN_HIT_RATE
    ]


def _incident_regime(tenants: dict[str, dict]) -> list[str]:
    # Retries are reported, not required: they come only from attempts a
    # crash destroys while deadlines are armed, 0-10 per run depending on
    # the seed.
    failures = []
    for name, t in tenants.items():
        if t["faults_injected"] < 1:
            failures.append(f"{name}: no fault struck")
        if t["max_watchdog_level"] < DEADLINE_LEVEL:
            failures.append(f"{name}: the watchdog never armed deadlines")
        if t["availability"] < MIN_AVAILABILITY:
            failures.append(
                f"{name}: availability {t['availability']:.3f} < {MIN_AVAILABILITY}"
            )
    return failures


#: name -> (builder, regime check).  Why each workload exists is recorded in
#: BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Callable[..., Job], Callable[[dict], list[str]]]] = {
    "diurnal_steady": (build_diurnal_steady, _healthy),
    "cached_skewed": (build_cached_skewed, _cached_regime),
    "incident_slo": (build_incident_slo, _incident_regime),
    "fleet_streamed": (build_fleet_streamed, _healthy),
}
