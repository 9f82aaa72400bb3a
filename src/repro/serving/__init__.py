"""Discrete-event serving simulation.

The paper's dynamic-traffic experiment (Section VI-D, Figure 19) drives the
deployed system with fluctuating query traffic while Kubernetes HPA scales
shard replicas in and out, and reports the achieved QPS, allocated memory and
tail latency over time.  This subpackage provides that serving loop as a
discrete-event engine with pluggable policies:

* :mod:`repro.serving.engine` — the event core: a heap of typed events
  (arrivals; one control tick that runs the autoscaler, reconcile and
  sampling in that order; faults, recoveries, re-plans, watchdog actions,
  attempt timeouts and retries) driving the cluster, plus vectorised series
  post-processing.  :class:`MultiTenantEngine` drives N tenants (each a
  :class:`TenantSpec` with its own traffic, routing, SLA, autoscaler and
  seed) competing for one shared node pool,
  returning a :class:`MultiTenantResult` with per-tenant
  :class:`SimulationResult` series plus cluster-wide
  memory/utilization/pending-placement series.  :class:`ServingEngine` is
  the one-tenant case: its options are :class:`TenantSpec` fields and it
  takes a traffic pattern per run.
* :mod:`repro.serving.routing` — pluggable per-deployment routing policies
  (``least-work``, ``round-robin``, ``power-of-two``, ``ready-only``,
  ``least-outstanding``, ``cost-weighted``, ``recovery-aware``) over
  numpy replica pools.  See :data:`ROUTING_POLICIES` /
  :func:`make_routing_policy`.
* :mod:`repro.serving.scenarios` — a library of named traffic scenarios
  (diurnal, flash crowd, sinusoidal, ramp-and-hold, composable noise)
  layered on :class:`TrafficPattern`.  See :data:`SCENARIOS` /
  :func:`build_scenario`.
* :mod:`repro.serving.traffic` — constant / step / Poisson traffic patterns,
  including the paper's Figure 19 profile.
* :mod:`repro.serving.workload` — per-query cost models
  (``homogeneous``/``skewed``): vectorised, seeded sampling of gather-cost
  multipliers from the data layer's access distributions, normalised so the
  planner's estimates stay the mean.  See :data:`COST_MODELS` /
  :func:`make_cost_model`.
* :mod:`repro.serving.replica_server` — per-replica FIFO *batch* queueing
  (``max_batch``, batching window, batch service times from the hardware
  layer's :class:`~repro.hardware.perf_model.BatchLatencyModel`; the default
  ``max_batch=1`` reproduces single-query queueing bit-for-bit).
* :mod:`repro.serving.replanner` — online re-planning: the threshold-tier
  drift detector and re-plan policy behind the ``replan=`` knob; paired with
  ``drift=`` (see :func:`repro.serving.workload.make_drift_model`), the
  engine re-partitions mid-run against the measured mixture distribution and
  models the shard-copy migration as typed heap events.
* :mod:`repro.serving.faults` — fault injection: scripted and stochastic
  failure/recovery events (replica crash, node drain, straggler windows,
  transient degradation) scheduled as first-class engine events with seeded
  determinism.  See :data:`FAULT_SCENARIOS` / :func:`make_fault_model` and
  the ``faults=`` knob on :class:`ServingEngine` / :class:`TenantSpec`.
* :mod:`repro.serving.spec` — the one ``kind@at[+duration][:key=value,...]``
  grammar behind the ``faults=``, ``drift=``, ``replan=`` and ``slo=``
  knobs; every malformed spec raises a one-line :class:`SpecError`.
* :mod:`repro.serving.sharding` — the sharded run executor:
  :func:`run_sharded` partitions a multi-tenant run by tenant across worker
  processes (bit-exact with the serial run whenever tenants do not contend
  for the pool), :func:`merge_stream` rebuilds results from an on-disk
  spool.
* :mod:`repro.serving.streaming` — the append-only series spool backing
  memory-bounded streamed runs (``StreamConfig``, chunk readers/writers,
  crash-recovery semantics).
* :mod:`repro.serving.latency` — latency bookkeeping and percentiles.

Quick tour::

    from repro.serving import ServingEngine, build_scenario

    engine = ServingEngine(plan, routing="power-of-two", seed=0)
    pattern = build_scenario("flash-crowd", base_qps=20, peak_qps=90,
                             duration_s=900)
    result = engine.run(pattern)
    print(result.summary())
"""

from repro.serving.traffic import TrafficPattern, TrafficPhase, paper_dynamic_pattern
from repro.serving.replica_server import ReplicaServer
from repro.serving.latency import LatencyTracker
from repro.serving.engine import (
    ClusterSeries,
    EventKind,
    MultiTenantEngine,
    MultiTenantResult,
    ServingEngine,
    SimulationResult,
    TenantSpec,
)
from repro.serving.routing import (
    ROUTING_POLICIES,
    RoutingPolicy,
    make_routing_policy,
    routing_policy_names,
)
from repro.serving.scenarios import (
    SCENARIOS,
    build_scenario,
    diurnal,
    flash_crowd,
    ramp_and_hold,
    scenario_names,
    sinusoidal,
    with_noise,
)
from repro.serving.faults import (
    FAULT_SCENARIOS,
    FaultModel,
    NodeDrain,
    RandomCrashes,
    ReplicaCrash,
    StragglerSlowdown,
    TransientDegradation,
    fault_scenario_names,
    make_fault_model,
    parse_fault_script,
)
from repro.serving.replanner import (
    DriftDetector,
    ReplanPolicy,
    make_replan_policy,
    parse_replan_spec,
)
from repro.serving.spec import SpecError
from repro.serving.sharding import (
    ShardPlan,
    merge_stream,
    plan_shards,
    run_sharded,
)
from repro.serving.streaming import (
    ShardManifest,
    SpoolError,
    SpoolTruncatedError,
    StreamConfig,
)
from repro.serving.workload import (
    COST_MODELS,
    DriftSpec,
    HomogeneousCostModel,
    QueryCostModel,
    SkewedCostModel,
    cost_model_names,
    make_cost_model,
    make_drift_model,
    parse_drift_spec,
)

__all__ = [
    "TrafficPattern",
    "TrafficPhase",
    "paper_dynamic_pattern",
    "ReplicaServer",
    "LatencyTracker",
    "EventKind",
    "ServingEngine",
    "SimulationResult",
    "TenantSpec",
    "MultiTenantEngine",
    "MultiTenantResult",
    "ClusterSeries",
    "ShardPlan",
    "plan_shards",
    "run_sharded",
    "merge_stream",
    "ShardManifest",
    "StreamConfig",
    "SpoolError",
    "SpoolTruncatedError",
    "RoutingPolicy",
    "ROUTING_POLICIES",
    "make_routing_policy",
    "routing_policy_names",
    "SCENARIOS",
    "build_scenario",
    "scenario_names",
    "diurnal",
    "flash_crowd",
    "sinusoidal",
    "ramp_and_hold",
    "with_noise",
    "FaultModel",
    "ReplicaCrash",
    "NodeDrain",
    "StragglerSlowdown",
    "TransientDegradation",
    "RandomCrashes",
    "FAULT_SCENARIOS",
    "fault_scenario_names",
    "make_fault_model",
    "parse_fault_script",
    "QueryCostModel",
    "HomogeneousCostModel",
    "SkewedCostModel",
    "COST_MODELS",
    "make_cost_model",
    "cost_model_names",
    "DriftSpec",
    "parse_drift_spec",
    "make_drift_model",
    "ReplanPolicy",
    "DriftDetector",
    "parse_replan_spec",
    "make_replan_policy",
    "SpecError",
]
