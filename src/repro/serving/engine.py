"""Discrete-event serving engine: one event loop for one plan or a fleet.

The engine is a classic discrete-event simulation: a binary heap of typed
events drives the run, and everything policy-shaped (replica selection,
traffic generation, autoscaling) is pluggable around the deterministic core.

Event types, in tie-breaking order at equal timestamps (query completions
are not events: a replica's ``submit`` returns the attempt's completion time,
and ``least-outstanding`` routing counts in-flight attempts from those):

* ``ARRIVAL`` — the next pending query arrival.  Arrivals are pre-generated
  as one sorted vector per tenant per run and consumed in *drains*: one
  ARRIVAL event serves every arrival of its tenant up to the first one that
  must wait for a non-ARRIVAL event (a control tick, a fault, a replan, a
  watchdog action, or a timeout or retry), so a 100k-query run costs
  thousands — not hundreds of thousands — of heap operations.  Each
  tenant's one pending ARRIVAL waits on a heap of its own, so other
  tenants' arrivals never end a drain: tenants share only the cluster, and
  only non-ARRIVAL events change it;
* ``AUTOSCALE`` — the coalesced control tick: one heap event per boundary
  timestamp runs every control phase landing there, in the order separate
  per-phase events would pop: each resident tenant's interval-metric flush
  and HPA evaluation, then the shared cluster ``RECONCILE`` (drive the
  cluster toward the desired replica counts and mirror the active
  containers into replica queue servers), then each resident tenant's
  ``SAMPLE`` (append one point to every recorded time series, feed the
  drift detector and the SLO watchdog, reset the per-interval
  accumulators).  ``RECONCILE`` and ``SAMPLE`` are phases of this event,
  never pushed themselves; ``on_event`` observers still see each phase;
* ``FAULT`` — inject one failure from the run's fault timeline (replica
  crash, node drain, straggler window, transient degradation — see
  :mod:`repro.serving.faults`);
* ``RECOVERY`` — a fault's scheduled transition: the end of a drain's grace
  period (evict the node's containers and settle their in-flight queries),
  a node uncordon, or the end of a slowdown window;
* ``REPLAN`` — online re-planning: a ``"fire"`` (pushed by a sample whose
  drift detector fired, or by a watchdog escalation) starts the shard-copy
  migration, and its ``"cutover"`` swaps the successor plan in;
* ``WATCHDOG`` — one SLO-ladder action, pushed by the sample that decided
  it and applied after the control tick;
* ``TIMEOUT`` — an attempt outlived its timeout under armed deadlines:
  retry within budget or give up;
* ``RETRY`` — a scheduled client retry re-issuing a query across all lanes.

Fault timelines are materialised at the start of each run from the tenant's
fault model (scripted events verbatim, stochastic processes sampled from the
dedicated ``[seed, 3]`` stream), so a faulty run is exactly as deterministic
as a healthy one — and a run with no faults pushes no fault events at all,
keeping it bit-exact with the fault-unaware engine.

Every simulation is a *multi-tenant cluster* (:class:`MultiTenantEngine`):
N tenants, each a validated :class:`TenantSpec` with its own traffic
pattern, routing policy, SLA target, autoscaler and random seed, competing
for one shared capacity-constrained node pool.  Every tenant is a
:class:`_TenantRuntime` holding its slice of the cluster's deployments plus
its per-run accumulators.  Each run binds every runtime to the run's two
heaps, sequence counter and tenant index, and a runtime pushes its own
events through :meth:`_TenantRuntime.push` (and its next drain through
:meth:`_TenantRuntime.push_arrival`) as ``(time, kind, seq, (tenant_index,
payload))``; the loop pops the smaller of the two heap tops, so events
from different tenants interleave in the order one merged heap would pop.
:class:`ServingEngine` is the one-tenant fleet with the traffic pattern
supplied per run, so the single-plan and fleet paths share one constructor,
one start-up sequence and one event loop.

Every run ends in one place, :func:`result_from_chunks`: a
tenant's scalar fields come from its run manifest
(:meth:`_TenantRuntime.manifest`) and its series from stacked series
chunks — one chunk for an in-memory run, the spooled sequence for a streamed
one — so the two execution modes cannot drift apart.

Queries are *heterogeneous*: every run pre-samples one cost multiplier per
query from the tenant's :class:`~repro.serving.workload.QueryCostModel`
(vectorised, from a dedicated seed stream), embedding and monolithic
deployments scale their service times by it, and replicas serve *batches*
(``max_batch``/``batch_window_s``) whose service times come from the
hardware layer's :class:`~repro.hardware.perf_model.BatchLatencyModel`.
Routing policies receive the per-deployment cost hint, enabling
cost-weighted selection.  The default configuration — ``homogeneous`` cost
model, ``max_batch=1`` — reproduces the historical constant-service-time
engine bit-for-bit.

The per-query hot path is vectorised end to end: every deployment keeps a
:class:`~repro.serving.routing.ReplicaPool` — numpy arrays of queue-drain
times, readiness and availability with dirty-flag invalidation — so routing
policies rank replicas with one ``argmin`` instead of a Python pass, the
:class:`~repro.serving.latency.LatencyTracker` records into pre-allocated
buffers, and per-deployment interval accounting lives in slotted lane
structs rather than dict lookups.  Every attempt of a query on a lane —
first attempts, client retries and crash re-queues alike — goes through
one dispatch loop (:meth:`_TenantRuntime._dispatch`) that routes, prices,
submits and registers it, except inside a drain whose lanes share nothing
but the end-to-end latency (a policy ranking as least-work on unblocked
single-query replicas, no straggler window): there the rest of the drain
is served one lane at a time by the k-server FIFO recursion
(:meth:`_TenantRuntime.serve_chunk`), with what the watchdog arms applied
per chunk, bit-exact with the per-query loop.

Series post-processing (achieved QPS, windowed p95) is vectorised with a
*single shared* stable sort of the completion times (via
:meth:`~repro.serving.latency.LatencyTracker.completion_order`) plus
``np.searchsorted`` window lookups.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field, fields
from enum import IntEnum
from typing import Callable, Sequence

import numpy as np

from repro.cluster.autoscaler import HorizontalPodAutoscaler
from repro.cluster.cluster import Cluster
from repro.cluster.container import ContainerState
from repro.cluster.deployment import Deployment
from repro.cluster.metrics import linear_percentile, pairwise_mean
from repro.core.plan import DeploymentPlan, ROLE_DENSE, ROLE_MONOLITHIC
from repro.hardware.perf_model import PerfModel
from repro.hardware.specs import ClusterSpec
from repro.serving.faults import (
    FaultModel,
    NodeDrain,
    ReplicaCrash,
    StragglerSlowdown,
    TransientDegradation,
    make_fault_model,
    resolve_fault_spec,
)
from repro.serving.latency import LatencyTracker
from repro.serving.replanner import (
    DriftDetector,
    ReplanPolicy,
    make_replan_policy,
)
from repro.serving.replica_server import (
    CacheSpec,
    ReplicaServer,
    copy_least_work,
    least_work_marks,
    least_work_state,
    serve_least_work,
)
from repro.serving.routing import (
    ReplicaPool,
    RoutingPolicy,
    make_routing_policy,
    resolve_routing_names,
)
from repro.serving.spec import is_off
from repro.serving.streaming import (
    SpoolWriter,
    StreamConfig,
    claim_spool,
)
from repro.serving.traffic import TrafficPattern
from repro.serving.watchdog import (
    WATCHDOG_SERIES_KEYS,
    SloPolicy,
    SloWatchdog,
    make_slo_policy,
    retry_allowed,
)
from repro.serving.workload import (
    HomogeneousCostModel,
    QueryCostModel,
    degraded_gather_multiplier,
    drift_endpoint_model,
    make_cost_model,
    make_drift_model,
    parse_drift_spec,
    resolve_cost_model_name,
    sample_drifting_priced,
)

__all__ = [
    "EventKind",
    "ServingEngine",
    "SimulationResult",
    "TenantSpec",
    "MultiTenantEngine",
    "MultiTenantResult",
    "ClusterSeries",
]


class EventKind(IntEnum):
    """Typed events of the serving engine, in same-timestamp priority order."""

    #: Never pushed; kept so per-kind event counters still name it.
    COMPLETION = 0
    ARRIVAL = 1
    AUTOSCALE = 2
    #: Phases of the AUTOSCALE tick, reported to ``on_event``; never pushed.
    RECONCILE = 3
    SAMPLE = 4
    FAULT = 5
    RECOVERY = 6
    #: Online re-planning: a ``"fire"`` event starts the shard-copy
    #: migration toward a successor plan; its ``"cutover"`` twin lands
    #: when the copies complete and swaps the plan in (invalidating caches).
    REPLAN = 7
    #: SLO watchdog actuation: a typed ladder action — ``("degrade", level)``,
    #: ``("recover", level)`` or ``("escalate",)`` — pushed by the sample that
    #: decided it, so it applies after the control tick in event order.
    WATCHDOG = 8
    #: A per-query attempt timeout under armed deadlines: decide between a
    #: budgeted retry (backoff + jitter, storm-guarded) and a final timeout.
    TIMEOUT = 9
    #: A scheduled client retry re-issuing one query across all lanes.
    RETRY = 10


#: Attempt kinds of :meth:`_TenantRuntime._dispatch`: a fresh arrival, a
#: client retry, and a crash re-queue onto a surviving replica.
_FIRST, _RETRY, _REQUEUE = 0, 1, 2

#: Most arrivals, and most sample ticks, one tenant's run may expect: each
#: is drawn as one array up front, so an absurd horizon would otherwise end
#: in a numpy allocation error.  A streamed 24-hour diurnal tenant at 2-6
#: QPS expects about 346k arrivals and 5,760 ticks.
MAX_HORIZON = 100_000_000


@dataclass
class SimulationResult:
    """Time series and aggregates produced by one simulation run."""

    plan_name: str
    strategy: str
    sla_s: float
    sample_times: np.ndarray
    target_qps: np.ndarray
    achieved_qps: np.ndarray
    memory_gb: np.ndarray
    p95_latency_ms: np.ndarray
    replica_counts: dict[str, np.ndarray]
    tracker: LatencyTracker = field(repr=False, default_factory=LatencyTracker)
    routing: str = "least-work"
    tenant: str = ""
    utilization: dict[str, np.ndarray] = field(default_factory=dict)
    cost_model: str = "homogeneous"
    max_batch: int = 1
    #: Per-deployment mean queries-per-batch over each sample interval
    #: (0.0 where the interval completed no batches).
    batch_occupancy: dict[str, np.ndarray] = field(default_factory=dict)
    #: Name of the fault model driving the run ("none" for a healthy fleet).
    faults: str = "none"
    #: Per-deployment fraction of the interval's queries that were served
    #: (neither rejected for lack of capacity nor dropped by a crash).
    availability: dict[str, np.ndarray] = field(default_factory=dict)
    #: Per-deployment count of crash-displaced queries re-queued per interval.
    requeues: dict[str, np.ndarray] = field(default_factory=dict)
    #: Per-deployment mean embedding-cache hit rate over each sample interval
    #: (only populated for cache-bearing deployments of a cached run; empty
    #: on cache-less runs, so their digests are untouched).
    cache_hit_rate: dict[str, np.ndarray] = field(default_factory=dict)
    #: Per-replica embedding-cache budget the run was configured with
    #: (0.0 means no cache tier).
    cache_mb: float = 0.0
    #: Queries rejected outright because a deployment had no routable replica.
    rejected_queries: int = 0
    #: Queries killed mid-flight by a crash/drain under the ``drop`` policy
    #: (or re-queued into a deployment with no survivors).
    dropped_queries: int = 0
    #: Crash-displaced queries successfully re-queued onto a surviving replica.
    requeued_queries: int = 0
    #: Fault events that actually struck this tenant: one per crash,
    #: straggler window, degradation window, or node drain that hit at least
    #: one of the tenant's replicas.  Misfires (a crash against an empty
    #: deployment, a drain of a node hosting none of the tenant's replicas)
    #: are not counted.
    faults_injected: int = 0
    #: Access-skew drift spec the run was configured with ("none" when the
    #: distribution is static).  Deliberately outside :meth:`digest`: the
    #: digest fingerprints the simulated series, and a zero-weight drift is
    #: bit-identical with no drift at all.
    drift: str = "none"
    #: Re-plan trigger spec ("none" when the initial plan is final).
    replan: str = "none"
    #: Successor plans actually cut over to mid-run.
    replans_applied: int = 0
    #: SLO watchdog spec ("none" when the control plane is off).
    slo: str = "none"
    #: Queries whose deadline expired with the retry budget exhausted.
    timeout_queries: int = 0
    #: Queries served under quality fallback (cache-hot-only gathers).
    degraded_queries: int = 0
    #: Arrivals voluntarily rejected by watchdog admission control.  A
    #: subset of ``rejected_queries`` — the involuntary remainder is
    #: ``rejected_queries - shed_queries``.
    shed_queries: int = 0
    #: Client retries actually launched (re-issues, not distinct queries).
    retried_queries: int = 0
    #: Sample ticks on which at least one tier-1 SLA rule breached.
    slo_tier1_breaches: int = 0
    #: Sample ticks on which the tier-2 distribution tests flagged a shift.
    slo_tier2_flags: int = 0
    #: Ladder escalations handed to the re-planner.
    slo_escalations: int = 0
    #: Ladder levels recovered after tier-2 reported reconciliation.
    slo_recoveries: int = 0
    #: Per-interval watchdog series ("level", "shed", "timeouts",
    #: "degraded"); empty on watchdog-off runs, so their digests are
    #: untouched.
    watchdog_series: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def completed_queries(self) -> int:
        """Queries served to completion (arrivals minus rejections, drops
        and deadline timeouts — the conservation identity
        ``completions + rejections + drops + timeouts == arrivals``)."""
        return (
            self.tracker.num_samples
            - self.rejected_queries
            - self.dropped_queries
            - self.timeout_queries
        )

    @property
    def availability_fraction(self) -> float:
        """Fraction of all arrivals that were served (1.0 with no traffic)."""
        if self.tracker.num_samples == 0:
            return 1.0
        return self.completed_queries / self.tracker.num_samples

    def reliability_summary(self) -> dict[str, float]:
        """Fault-facing aggregates of the run (all zeros for a healthy fleet)."""
        return {
            "availability": self.availability_fraction,
            "completed_queries": float(self.completed_queries),
            "rejected_queries": float(self.rejected_queries),
            "dropped_queries": float(self.dropped_queries),
            "requeued_queries": float(self.requeued_queries),
            "faults_injected": float(self.faults_injected),
            "timeout_queries": float(self.timeout_queries),
            "degraded_queries": float(self.degraded_queries),
            "shed_queries": float(self.shed_queries),
            "retried_queries": float(self.retried_queries),
        }

    def digest(self) -> str:
        """Deterministic fingerprint of the run's series and aggregates."""
        hasher = hashlib.sha256()
        for array in (
            self.sample_times,
            self.target_qps,
            self.achieved_qps,
            self.memory_gb,
            self.p95_latency_ms,
            self.tracker.completion_times,
            self.tracker.latencies_s,
        ):
            hasher.update(np.ascontiguousarray(array).tobytes())
        # cache_hit_rate / watchdog_series are empty on cache-less /
        # watchdog-off runs, so hashing them there is a no-op and every
        # pre-cache / pre-watchdog digest is preserved bit-for-bit.
        for mapping in (
            self.replica_counts,
            self.availability,
            self.requeues,
            self.cache_hit_rate,
            self.watchdog_series,
        ):
            for name in sorted(mapping):
                hasher.update(name.encode())
                hasher.update(np.ascontiguousarray(mapping[name]).tobytes())
        hasher.update(repr(sorted(self.summary().items())).encode())
        hasher.update(repr(sorted(self.reliability_summary().items())).encode())
        return hasher.hexdigest()

    @property
    def peak_memory_gb(self) -> float:
        """Highest allocated memory observed."""
        return float(self.memory_gb.max()) if self.memory_gb.size else 0.0

    @property
    def mean_latency_ms(self) -> float:
        """Mean end-to-end latency over the whole run (0.0 with no traffic)."""
        if self.tracker.num_samples == 0:
            return 0.0
        return self.tracker.mean() * 1000.0

    @property
    def overall_p95_latency_ms(self) -> float:
        """p95 end-to-end latency over the whole run (0.0 with no traffic)."""
        if self.tracker.num_samples == 0:
            return 0.0
        return self.tracker.percentile(95.0) * 1000.0

    def sla_violation_fraction(self) -> float:
        """Fraction of queries whose latency exceeded the SLA."""
        return self.tracker.sla_violation_fraction(self.sla_s)

    def sla_violation_count(self) -> int:
        """Number of queries whose latency exceeded the SLA."""
        return self.tracker.count_exceeding(self.sla_s)

    def summary(self) -> dict[str, float]:
        """Headline aggregates of the run."""
        return {
            "peak_memory_gb": self.peak_memory_gb,
            "mean_latency_ms": self.mean_latency_ms,
            "p95_latency_ms": self.overall_p95_latency_ms,
            "sla_violation_fraction": self.sla_violation_fraction(),
            "total_queries": float(self.tracker.num_samples),
        }


#: The scalar fields of :class:`SimulationResult`, copied verbatim from a
#: run manifest.
_RESULT_SCALARS = tuple(
    f.name for f in fields(SimulationResult) if f.type in ("str", "int", "float")
)
#: Per-deployment series: one row per deployment in every series chunk.
_LANE_SERIES = (
    "replica_counts",
    "utilization",
    "availability",
    "requeues",
    "batch_occupancy",
)
#: Every key :func:`result_from_chunks` reads from a manifest.
_MANIFEST_KEYS = (
    *_RESULT_SCALARS,
    "sample_interval_s",
    "deployments",
    "cached_deployments",
)


def result_from_chunks(
    meta: dict,
    series_chunks: Sequence[dict[str, np.ndarray]],
    tracker: LatencyTracker,
) -> SimulationResult:
    """Assemble one tenant's :class:`SimulationResult` from its run.

    ``meta`` carries every scalar field by name plus the series layout
    (:meth:`_TenantRuntime.manifest`); ``series_chunks`` are the run's
    series chunks in time order (one for an in-memory run, the spooled
    sequence for a streamed one) and ``tracker`` holds every query sample.
    Both execution modes build their results here.
    """

    def stacked(key: str) -> np.ndarray:
        return np.concatenate([chunk[key] for chunk in series_chunks], axis=-1)

    def rows(key: str, names: Sequence[str]) -> dict[str, np.ndarray]:
        return dict(zip(names, stacked(key))) if names else {}

    sample_times = stacked("sample_times")
    achieved_qps, p95_latency_ms = _metric_series(
        tracker, sample_times, meta["sample_interval_s"]
    )
    deployments = meta["deployments"]
    return SimulationResult(
        **{name: meta[name] for name in _RESULT_SCALARS},
        sample_times=sample_times,
        target_qps=stacked("target_qps"),
        achieved_qps=achieved_qps,
        memory_gb=stacked("memory_gb"),
        p95_latency_ms=p95_latency_ms,
        tracker=tracker,
        **{key: rows(key, deployments) for key in _LANE_SERIES},
        cache_hit_rate=rows("cache_hit_rate", meta["cached_deployments"]),
        watchdog_series=rows(
            "watchdog", WATCHDOG_SERIES_KEYS if meta["slo"] != "none" else ()
        ),
    )


# ----------------------------------------------------------------------
# Series post-processing (vectorised)
# ----------------------------------------------------------------------
def _metric_series(
    tracker: LatencyTracker, sample_times: np.ndarray, interval_s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Achieved-QPS and rolling-p95 series sharing one completion sort.

    The tracker's cached stable argsort orders completions and latencies
    once; both series then reduce to binary searches over the sorted arrays
    (the historical implementation sorted the completion array independently
    per series).
    """
    order = tracker.completion_order()
    sorted_completions = tracker.completion_times[order]
    sorted_latencies = (tracker.latencies_s * 1000.0)[order]
    counts = np.searchsorted(sorted_completions, sample_times) - np.searchsorted(
        sorted_completions, sample_times - interval_s
    )
    achieved_qps = counts / interval_s
    window = max(interval_s, 30.0)
    # Each window is (end - window, end]; two binary searches per sample
    # replace a full boolean mask per sample.
    hi = np.searchsorted(sorted_completions, sample_times, side="right")
    lo = np.searchsorted(sorted_completions, sample_times - window, side="right")
    p95_series = np.zeros_like(sample_times)
    for index in range(sample_times.size):
        if hi[index] > lo[index]:
            p95_series[index] = linear_percentile(sorted_latencies[lo[index] : hi[index]], 95)
    return achieved_qps, p95_series


class _DeploymentLane:
    """One deployment's record, walked by ``serve_query`` and ``serve_chunk``.

    Everything the tenant keeps per deployment, grouped in ``__slots__``,
    in one slotted struct, so the per-query path does no dict lookups.
    ``servers`` maps replica names to :class:`ReplicaServer` in creation
    order, and ``pool`` mirrors it.  Latencies are kept per tenant, in
    ``_TenantRuntime.interval_latencies``.
    """

    __slots__ = (
        # The deployment, its replicas, their routing pool and batch model.
        "deployment", "name", "servers", "pool", "batch_model",
        # What the drain kernel reads of the lane.
        "service_s", "cost_bearing", "dense", "cached", "twinned",
        # Served totals of retired replicas, and the occupancy mark.
        "retired_queries", "retired_batches", "occupancy_mark",
        # Per-interval accumulators, cleared by ``start_interval``.
        "count", "failures", "requeues", "hit_sum", "gather_sum",
        # Rows of the per-deployment series, emptied by ``start_series``.
        "replica_rows", "utilization_rows", "availability_rows",
        "requeue_rows", "occupancy_rows", "hit_rate_rows",
    )

    def __init__(
        self, deployment: Deployment, batch_model, cache_spec: CacheSpec | None
    ) -> None:
        role = deployment.spec.role
        self.deployment = deployment
        self.name = deployment.name
        self.servers: dict[str, ReplicaServer] = {}
        # Membership and failed/draining changes invalidate the pool;
        # accepted queries update its queue-drain array in place.  Pure
        # dense shards do not gather embeddings, so per-query cost
        # multipliers and caches only apply to embedding and monolithic
        # deployments.
        self.pool = ReplicaPool(self.servers, cache_spec if role != ROLE_DENSE else None)
        self.batch_model = batch_model
        self.service_s = 1.0 / deployment.spec.per_replica_qps
        self.cost_bearing = role != ROLE_DENSE
        self.dense = role in (ROLE_DENSE, ROLE_MONOLITHIC)
        #: Whether this lane's replicas carry embedding caches (their fills
        #: and pricing live in the lane's pool).
        self.cached = self.pool.has_caches
        #: Whether another lane of the tenant has this lane's role, so the
        #: two can enter the drain kernel with equal inputs.
        self.twinned = False
        # Replicas scaled away or killed, so occupancy deltas survive churn.
        self.retired_queries = 0
        self.retired_batches = 0
        self.occupancy_mark = (0, 0)
        self.start_interval()
        self.start_series()

    def start_interval(self) -> None:
        """Zero the per-interval accumulators.

        ``count`` is the queries offered this interval, ``failures`` those
        that found no routable replica or were dropped, ``requeues`` the
        crashed replicas' shares re-sent to a survivor, and ``hit_sum`` /
        ``gather_sum`` the expected gathers served from cache and the total
        offered (cached lanes only).
        """
        self.count = 0
        self.failures = 0
        self.requeues = 0
        self.hit_sum = 0.0
        self.gather_sum = 0.0

    def start_series(self) -> None:
        """Empty the lane's rows of the per-deployment series."""
        self.replica_rows: list[int] = []
        self.utilization_rows: list[float] = []
        self.availability_rows: list[float] = []
        self.requeue_rows: list[int] = []
        self.occupancy_rows: list[float] = []
        self.hit_rate_rows: list[float] = []

    def retire(self, server: ReplicaServer) -> None:
        """Fold a departing replica's served totals into the lane's."""
        self.retired_queries += server.completed_queries
        self.retired_batches += server.completed_batches

    def served_totals(self) -> tuple[int, int]:
        """Lifetime (queries, batches) served by the deployment's replicas."""
        queries, batches = self.retired_queries, self.retired_batches
        for server in self.servers.values():
            queries += server.completed_queries
            batches += server.completed_batches
        return queries, batches

    def sample(self, now: float, window_start: float) -> None:
        """Append the interval ending at ``now`` to each of the lane's rows."""
        self.replica_rows.append(len(self.deployment.active_replicas))
        servers = self.servers.values()
        if servers:
            utilization = pairwise_mean(
                [s.utilization(now, window_start=window_start) for s in servers]
            )
            # Utilization windows only move forward, so busy runs behind
            # this window can never be read again — drop them, or a long
            # run's per-replica busy history grows one entry per idle gap.
            for server in servers:
                server.prune_runs(window_start)
        else:
            utilization = 0.0
        self.utilization_rows.append(utilization)
        queries, batches = self.served_totals()
        mark_queries, mark_batches = self.occupancy_mark
        batch_delta = batches - mark_batches
        if batch_delta:
            occupancy = (queries - mark_queries) / batch_delta
            self.occupancy_mark = (queries, batches)
        else:
            # No batch opened this interval: leave the query mark in
            # place so queries that joined a straddling batch are
            # attributed to the next batch-opening interval instead of
            # being dropped from the occupancy accounting.
            occupancy = 0.0
        self.occupancy_rows.append(occupancy)
        offered = self.count
        failures = self.failures
        if offered:
            # Drops of queries offered in an earlier interval can push
            # failures past this interval's offered count; availability
            # is clamped at zero rather than going negative.
            available = max(0.0, 1.0 - failures / offered)
        else:
            available = 1.0 if failures == 0 else 0.0
        self.availability_rows.append(available)
        self.requeue_rows.append(self.requeues)
        if self.cached:
            gathers = self.gather_sum
            self.hit_rate_rows.append(self.hit_sum / gathers if gathers > 0 else 0.0)


class _TenantRuntime:
    """One tenant's slice of the simulated cluster plus its run accumulators.

    Per-deployment state lives in the tenant's lanes (``_lanes``, one
    :class:`_DeploymentLane` per deployment, in plan order); the runtime
    keeps what the tenant's deployments share: routing and cost models, the
    tracker, the watchdog and re-plan state, the fault stacks and in-flight
    registry (keyed by deployment and replica name), and the tenant-wide
    series.  The run's accumulators are set up by :meth:`begin_run`, and
    :meth:`_start_interval` clears every per-interval one, the lanes'
    included; an engine (and so each runtime) runs once.
    """

    def __init__(
        self,
        spec: TenantSpec,
        deployments: Sequence[Deployment],
        stream: StreamConfig | None = None,
    ) -> None:
        # ``spec`` is already validated.
        plan = spec.plan
        # Streamed mode: per-interval series and settled tracker samples are
        # flushed to this tenant's spool directory instead of accumulating
        # in RAM for the whole run (the values written are bit-identical).
        self.stream = stream
        self.stream_writer = SpoolWriter(stream.directory) if stream is not None else None
        self.name = spec.name
        self.plan = plan
        self.deployments = list(deployments)
        self.policy = policy = make_routing_policy(spec.routing)
        self.autoscale = spec.autoscale
        self.autoscaler = HorizontalPodAutoscaler()
        self.sla_s = float(spec.sla_s if spec.sla_s is not None else plan.cluster.sla_s)
        self.sample_interval_s = float(spec.sample_interval_s)
        self.seed = spec.seed
        self.rng = np.random.default_rng(spec.seed)
        self.cost_model = make_cost_model(spec.cost_model, plan.workload)
        self.max_batch = int(spec.max_batch)
        self.batch_window_s = float(spec.batch_window_s)
        # Scripts parse here, once; registry scenarios are duration-relative
        # and build per run in begin_run.
        self.faults_spec = resolve_fault_spec(spec.faults)
        is_monolithic = plan.strategy != "elasticrec"
        perf_model = PerfModel(plan.cluster)
        self.rpc_overhead_s = 0.0 if is_monolithic else perf_model.rpc_overhead_s()
        # Per-replica embedding cache: one shared spec per tenant, sized in
        # hot rows from the HBM budget; each cached lane's pool holds its
        # replicas' fills, so replacement containers restart cold.
        self.cache_mb = float(spec.cache_mb)
        self.cache_spec: CacheSpec | None = None
        if self.cache_mb > 0:
            embedding = plan.workload.embedding
            row_bytes = embedding.embedding_dim * embedding.dtype_bytes
            capacity_rows = int(self.cache_mb * 1e6 // row_bytes)
            if capacity_rows >= 1:
                self.cache_spec = CacheSpec(
                    self.cost_model.distribution,
                    capacity_rows,
                    hot_rows=self.cost_model.hot_rank_limit,
                    hit_cost_fraction=self.cost_model.hot_cost_fraction,
                )
        self.caches_on = self.cache_spec is not None
        # Access-skew drift and online re-planning.  Drift re-samples each
        # query's gather set against a time-indexed mixture of two
        # distribution endpoints; the replan policy watches the live p95
        # series and swaps in a successor plan mid-run.  Both build here, once
        # (TenantSpec has already checked their grammar).
        drift, replan, slo = spec.drift, spec.replan, spec.slo
        self.drift_name = "none"
        self.drift_model = None
        self.end_cost_model = None
        if not is_off(drift):
            self.drift_name = drift if isinstance(drift, str) else "custom"
            if isinstance(drift, str):
                drift = parse_drift_spec(drift)
            self.drift_model = make_drift_model(drift, self.cost_model.distribution)
            self.end_cost_model = drift_endpoint_model(
                self.cost_model, self.drift_model.end
            )
        self.drift_on = self.drift_model is not None
        self.replan_policy = make_replan_policy(replan)
        self.replan_name = "none"
        if self.replan_policy is not None:
            self.replan_name = replan if isinstance(replan, str) else "custom"
        # SLO watchdog control plane; the per-run state lives in begin_run.
        self.slo_policy = make_slo_policy(slo)
        self.slo_name = "none"
        if self.slo_policy is not None:
            self.slo_name = slo if isinstance(slo, str) else "custom"
        self._lanes = [
            _DeploymentLane(d, perf_model.batch_model(d.spec.role), self.cache_spec)
            for d in self.deployments
        ]
        # Every Table II model gives all its tables one configuration, so
        # each shard type has a lane per table that ``serve_chunk`` can serve
        # once; a role held by one lane (the dense shard) never twins.
        roles = Counter((lane.cost_bearing, lane.dense, lane.cached) for lane in self._lanes)
        for lane in self._lanes:
            lane.twinned = roles[lane.cost_bearing, lane.dense, lane.cached] > 1
        # Dense/monolithic lanes record the interval's end-to-end p95 as their
        # ``<name>/latency_s`` metric; the set is fixed by the plan.
        self._dense_lanes = [lane for lane in self._lanes if lane.dense]
        # Most policies leave the base no-op on_submit untouched; skip the
        # per-lane-per-query call entirely for them.
        self.policy_on_submit = (
            policy.on_submit
            if type(policy).on_submit is not RoutingPolicy.on_submit
            else None
        )
        # A policy that can rank its pools as least-work (and has no submit
        # hook) can be served by :meth:`serve_chunk` lane by lane.
        self.least_work = (
            type(policy).least_work_ranking is not RoutingPolicy.least_work_ranking
            and self.policy_on_submit is None
        )

    # ------------------------------------------------------------------
    # Cluster/replica bookkeeping
    # ------------------------------------------------------------------
    @property
    def allocated_memory_gb(self) -> float:
        """Memory reserved by this tenant's active replicas, in GB."""
        return sum(d.allocated_memory_bytes for d in self.deployments) / 1e9

    def sync_servers(self, now: float) -> None:
        """Mirror the tenant's active containers into replica queue servers."""
        for lane in self._lanes:
            servers = lane.servers
            active_names = set()
            changed = False
            for container in lane.deployment.replicas:
                if not container.is_active:
                    continue
                active_names.add(container.name)
                if container.name not in servers:
                    ready_at = container.ready_at if container.ready_at is not None else now
                    # The pool starts a new container's cache fill at zero:
                    # a crash or drain replacement restarts cold and warms
                    # up from the queries it serves.
                    servers[container.name] = ReplicaServer(
                        container.name,
                        ready_at=ready_at,
                        max_batch=self.max_batch,
                        batch_window_s=self.batch_window_s,
                        batch_model=lane.batch_model,
                    )
                    changed = True
            for name in list(servers):
                if name not in active_names:
                    lane.retire(servers.pop(name))
                    changed = True
            if changed:
                lane.pool.invalidate()

    def invalidate_caches(self) -> None:
        """Drop every replica's cached rows (they all restart cold).

        The re-sharding hook: when the online re-planner cuts over to a new
        plan, the rows a replica cached no longer live where its queries
        will look for them, so the whole tier invalidates and the hit-rate
        series dips until the caches re-warm from served traffic.
        """
        for lane in self._lanes:
            lane.pool.reset_fills()

    # ------------------------------------------------------------------
    # Per-run lifecycle
    # ------------------------------------------------------------------
    def begin_run(self, pattern: TrafficPattern) -> None:
        """Reset the per-run accumulators; draw this run's arrivals and cost columns.

        The cost columns are float64 arrays in every run mode: the
        multiplier and, for a model with gather splits, the hot/cold/total
        gathers.  Pricing that depends on a replica's cache happens per
        attempt in :meth:`_dispatch`.  A pattern expecting more than
        :data:`MAX_HORIZON` arrivals or sample ticks raises a one-line
        :class:`ValueError` before either array is drawn.
        """
        for quantity, expected in (
            ("arrivals", pattern.expected_queries()),
            ("sample ticks", pattern.duration_s / self.sample_interval_s),
        ):
            if not expected <= MAX_HORIZON:
                raise ValueError(
                    f"tenant {self.name!r} expects {expected:.3g} {quantity} over "
                    f"{pattern.duration_s:g} s, more than the {MAX_HORIZON:,} a run can hold"
                )
        self.pattern = pattern
        self.arrivals = pattern.arrivals(self.rng)
        self.policy.reset(np.random.default_rng([self.seed, 1]))
        # Pre-sample every query's cost columns, vectorised, from a dedicated
        # seed stream (the homogeneous model never draws, so it cannot
        # perturb any other stream of the run).  The cache tier and watchdog
        # quality fallback price from the gather splits; ``sample_priced``
        # consumes the RNG exactly as ``sample`` does, so its multipliers
        # are bit-for-bit the ones ``sample`` would draw.
        columns = (None, None, None, None)
        if not self.cost_model.is_homogeneous:
            cost_rng = np.random.default_rng([self.seed, 2])
            if self.drift_on:
                # Drift-aware sampling.  The [seed, 2] cost stream is consumed
                # exactly as the drift-free path consumes it (start-endpoint
                # pool, then per-query assignment); the end-endpoint pool and
                # the per-query endpoint choice draw only from the dedicated
                # [seed, 4] drift stream — so a zero-weight drift reproduces
                # the drift-free run bit-for-bit, and drift-off runs never
                # touch [seed, 4] at all.
                *columns, start_mean, end_mean = sample_drifting_priced(
                    self.cost_model,
                    self.end_cost_model,
                    self.drift_model.weight_at(self.arrivals),
                    cost_rng,
                    np.random.default_rng([self.seed, 4]),
                )
                self._drift_means = (start_mean, end_mean)
            elif self.cost_model.supports_gather_splits:
                columns = self.cost_model.sample_priced(self.arrivals.size, cost_rng)
            else:
                multipliers = self.cost_model.sample(self.arrivals.size, cost_rng)
                columns = (multipliers, None, None, None)
        self.query_multipliers, self.query_hot, self.query_cold, self.query_total = columns
        # Re-plan state: the detector is re-armed per run; fires go through
        # the event loop as REPLAN heap events so migrations keep the
        # typed-event timeline (and its monotonicity invariant).
        self.detector = (
            DriftDetector(self.replan_policy, self.sla_s)
            if self.replan_policy is not None
            else None
        )
        self.replan_in_progress = False
        self.pending_successor = None
        self.replans_applied = 0
        # Watchdog state.  Off-mode (the default) arms nothing, keeps every
        # per-run container empty and — critically — never constructs the
        # dedicated [seed, 5] stream, so a watchdog-off run is bit-exact
        # with the pre-watchdog engine.
        self.watchdog_on = self.slo_policy is not None
        self.watchdog: SloWatchdog | None = None
        self.slo_rng: np.random.Generator | None = None
        if self.watchdog_on:
            policy = self.slo_policy
            self.watchdog = SloWatchdog(policy, self.sla_s)
            self.slo_rng = np.random.default_rng([self.seed, 5])
            self.deadline_s = policy.deadline_beta * self.sla_s
            self.attempt_timeout_s = policy.timeout_beta * self.sla_s
            self.shed_fraction_value = policy.shed_fraction
            self._hot_cost_fraction = getattr(
                self.cost_model, "hot_cost_fraction", 0.0
            )
        self.shed_armed = False
        self.deadline_armed = False
        self.fallback_armed = False
        self.timeout_indices: set[int] = set()
        self.degraded_indices: set[int] = set()
        self.shed_count = 0
        self.retried_count = 0
        #: tracker index -> retries already launched for that query.
        self.retry_attempts: dict[int, int] = {}
        #: tracker index -> token of its one live TIMEOUT/RETRY event.  A
        #: popped event whose token no longer matches is stale and inert, so
        #: crash-rescheduling can never double-fire a query's timeout path.
        self.pending_event: dict[int, int] = {}
        #: Completion-time min-heaps approximating the live population for
        #: the retry-storm guard (lazily pruned against ``now``).
        self._live_completions: list[float] = []
        self._retry_resolutions: list[float] = []
        self._retries_scheduled = 0
        self._start_interval()
        self._start_series_chunk()
        self.tracker = LatencyTracker()
        self.boundaries = np.arange(
            self.sample_interval_s,
            pattern.duration_s + self.sample_interval_s,
            self.sample_interval_s,
        )
        for lane in self._lanes:
            lane.pool.invalidate()
            lane.occupancy_mark = lane.served_totals()
        # Arrivals after the final sample boundary fall outside every recorded
        # interval and are never served (the seed loop behaved identically).
        self.num_served = (
            int(np.searchsorted(self.arrivals, self.boundaries[-1], side="right"))
            if self.boundaries.size
            else 0
        )
        # Fault state.  A run whose model resolves to nothing (including the
        # default no-fault configuration) has an empty timeline, skips the
        # in-flight registry entirely, and never touches the fault RNG — so
        # it stays bit-exact with the fault-unaware engine.
        fault_model = make_fault_model(self.faults_spec, pattern.duration_s)
        self.faults_name = "none"
        self.fault_timeline: list[tuple[float, object]] = []
        if fault_model is not None:
            self.faults_name = fault_model.name
            self.fault_rng = np.random.default_rng([self.seed, 3])
            self.fault_timeline = fault_model.timeline(pattern.duration_s, self.fault_rng)
        # In-flight tracking is wider than the tenant's own timeline: a
        # tenant with no fault model of its own still needs its in-flight
        # registry when *another* tenant's node drain can evict its
        # replicas, so :func:`_drive` turns this on for every tenant as soon
        # as any tenant has a timeline.
        self.track_inflight = bool(self.fault_timeline)
        self.faults_injected = 0
        #: (deployment, replica) -> stack of active straggler factors.
        #: Stacks (not scalars) so overlapping windows compose: each window
        #: pushes its factor and its recovery removes that one occurrence,
        #: leaving any still-open window in force.
        self.slowdowns: dict[tuple[str, str], list[float]] = {}
        #: deployment -> stack of active transient-degradation factors.
        self.degradations: dict[str, list[float]] = {}
        #: (deployment, replica) -> (shard completion, query index) per
        #: in-flight attempt, maintained only while faults are active.  The
        #: query index is also the query's tracker index; everything else
        #: a requeue or retry needs is looked up by it.
        self.inflight: dict[tuple[str, str], list[tuple[float, int]]] = {}
        self.rejected_indices: set[int] = set()
        self.dropped_indices: set[int] = set()
        self.requeued_count = 0
        #: Sample points accumulated since the last streamed series flush.
        self._pending_series_samples = 0

    def bind(
        self, heap: list, arrival_heap: list, seq: itertools.count, tenant_index: int
    ) -> None:
        """Attach the run's two shared heaps, its sequence counter and this tenant's index.

        ``heap`` holds every event but arrivals; ``arrival_heap`` holds each
        tenant's one pending ARRIVAL.  Only ``heap`` bounds a drain, so a
        drain runs past other tenants' arrivals to the next control event.
        """
        self._heap = heap
        self._arrival_heap = arrival_heap
        self._seq = seq
        self.tenant_index = tenant_index

    def push(self, at: float, kind: EventKind, payload) -> int:
        """Push one of this tenant's non-ARRIVAL events; return its sequence number.

        The event is ``(at, kind, seq, (tenant_index, payload))``: equal times
        pop in kind order, then push order.
        """
        seq = next(self._seq)
        heapq.heappush(self._heap, (at, kind, seq, (self.tenant_index, payload)))
        return seq

    def push_arrival(self, index: int) -> None:
        """Queue the drain that starts at arrival ``index``, ordered as :meth:`push` orders."""
        at = self.arrival_at(index)
        seq = next(self._seq)
        heapq.heappush(self._arrival_heap, (at, EventKind.ARRIVAL, seq, (self.tenant_index, index)))

    def arrival_at(self, index: int) -> float:
        """The ``index``-th arrival time as a Python float."""
        return float(self.arrivals[index])

    def _start_interval(self) -> None:
        """Clear every per-interval accumulator, the tenant's and its lanes'."""
        #: End-to-end latencies of the queries served this sample interval
        #: (first attempts and resolved retries, not shed queries), read by
        #: the dense lanes' latency metric, drift detection and the watchdog.
        self.interval_latencies: list[float] = []
        self.interval_arrivals = 0
        self.interval_shed = 0
        self.interval_rejected = 0
        self.interval_timeouts = 0
        self.interval_degraded = 0
        for lane in self._lanes:
            lane.start_interval()

    def serve_query(self, arrival: float, query_index: int) -> None:
        """Route one query through every deployment the tenant needs.

        Every arrival records exactly one tracker sample, in arrival order,
        so a query's tracker index is its arrival index ``query_index``.
        The drain serves each popped arrival here and, when it can,
        hands the rest of the drain to :meth:`serve_chunk`, which records
        the same samples lane by lane.
        """
        watchdog_on = self.watchdog_on
        if watchdog_on:
            self.interval_arrivals += 1
            # Admission control (ladder level >= 1): shed before touching any
            # lane or server, from the dedicated [seed, 5] stream — draws
            # happen only while shedding is armed, so a watchdog that never
            # degrades consumes the stream identically to one that is idle.
            if self.shed_armed and float(self.slo_rng.random()) < self.shed_fraction_value:
                self._shed_query(arrival)
                return
        fallback_on = self.fallback_armed
        worst_completion, rejected = self._dispatch(self._lanes, arrival, query_index, _FIRST)
        query_completion = worst_completion + self.rpc_overhead_s
        latency = query_completion - arrival
        self.interval_latencies.append(latency)
        if rejected:
            self.rejected_indices.add(query_index)
            if watchdog_on:
                self.interval_rejected += 1
        elif fallback_on:
            self.degraded_indices.add(query_index)
            self.interval_degraded += 1
        self.tracker.record(arrival + latency, latency)
        if self.deadline_armed and not rejected:
            # Per-query deadline contract (ladder level >= 2): track the live
            # population for the storm guard, and schedule the attempt's
            # TIMEOUT only when it will actually outlive its timeout budget.
            heapq.heappush(self._live_completions, query_completion)
            attempt_deadline = arrival + self.attempt_timeout_s
            if query_completion > attempt_deadline:
                self._schedule(attempt_deadline, EventKind.TIMEOUT, query_index)

    def chunk_eligible(self) -> bool:
        """Whether the rest of a drain may go through :meth:`serve_chunk`.

        Observed state, not a knob: a policy that can rank pools as
        least-work (:meth:`~repro.serving.routing.RoutingPolicy.least_work_ranking`),
        no straggler window active, and every lane's pool non-empty,
        unblocked and serving single-query batches.  Under these conditions
        a query's lanes share no state but its end-to-end latency, so lanes
        can be served one at a time.  A deployment-wide degradation
        stretches a whole lane alike, in-flight attempts are registered by
        the kernel as :meth:`_dispatch` registers them, and what the
        watchdog arms (shedding, deadlines, fallback) is applied per chunk
        as :meth:`serve_query` applies it per query.
        """
        if not self.least_work or self.slowdowns:
            return False
        for lane in self._lanes:
            pool = lane.pool.refresh()
            if not pool.size or pool.has_blocked or not pool.single_batch:
                return False
        return True

    def serve_chunk(self, begin: int, stop: int) -> None:
        """Serve arrivals ``[begin, stop)`` of an eligible drain, lane by lane.

        Each lane is one call to
        :func:`~repro.serving.replica_server.serve_least_work`, the k-server
        FIFO recursion that the policy's ranking
        (:meth:`~repro.serving.routing.RoutingPolicy.least_work_ranking`)
        and ``submit`` compute query by query: replicas join at their ready
        time and warming ones carry their cold penalty, priced with the
        query's undegraded cost hint.  A pool the policy ranks some other
        way (``None``: recovery-aware routing on caches still filling) goes
        through :meth:`_dispatch` one query at a time.  The lane's
        degradation factor stretches its service time, and cached lanes
        price through
        :meth:`~repro.serving.routing.ReplicaPool.cached_price` in query
        order.  While in-flight attempts are tracked, those completing
        after the heap top are registered, as :meth:`_dispatch` does.

        A lane whose kernel inputs (service time and degradation factor,
        cost and cache pricing, ranking, ready times, and each server's
        drain time and last busy run) equal an earlier lane's in this chunk
        is a twin: it takes that lane's outcome through
        :func:`~repro.serving.replica_server.copy_least_work` instead of a
        kernel call, which equal inputs make exact.  The tables of a Table
        II model share one configuration, so most lanes are twins until a
        crash, a one-deployment degradation or the HPA splits them.

        What the watchdog arms applies as in :meth:`serve_query`, in arrival
        order.  Shedding draws the chunk's ``slo_rng`` values with one
        ``random(count)`` call (the stream the scalar draws consume) and
        keeps shed queries out of every lane.  Quality fallback prices the
        cost-bearing lanes' queries at their degraded cost, bypassing the
        cache tier.  Armed deadlines push each query's completion onto the
        live population and schedule its TIMEOUT when it outlives the
        attempt timeout; :func:`_drive` cuts such drains into windows so
        that no TIMEOUT lands before a window's last arrival.

        End-to-end latency is then the latest lane completion plus the RPC
        overhead, recorded with one tracker ``extend``: bit-exact with
        serving each arrival through :meth:`serve_query`.
        """
        count = stop - begin
        if self.watchdog_on:
            self.interval_arrivals += count
        times = self.arrivals[begin:stop]
        rows = slice(begin, stop)
        indices = range(begin, stop)
        served = None
        if self.shed_armed:
            shed = self.slo_rng.random(count) < self.shed_fraction_value
            if shed.any():
                served = ~shed
                rows = np.flatnonzero(served) + begin
                indices = rows.tolist()
                self.rejected_indices.update((np.flatnonzero(shed) + begin).tolist())
                self.shed_count += count - rows.size
                self.interval_shed += count - rows.size
        served_times = times if served is None else times[served]
        arrivals = served_times.tolist()
        multipliers = None
        if self.query_multipliers is not None:
            chunk = self.query_multipliers[rows]
            if (chunk <= 0).any():
                raise ValueError("multiplier must be positive")
            multipliers = chunk.tolist()
        fallback = self.fallback_armed
        if self.query_hot is not None and (self.caches_on or fallback):
            hot = self.query_hot[rows].tolist()
            cold = self.query_cold[rows].tolist()
            total = self.query_total[rows].tolist()
        # Quality fallback: the cost-bearing lanes' degraded costs, as
        # _dispatch prices them; the cache tier is bypassed.
        degraded = None
        if fallback:
            if self.query_hot is not None:
                hot_fraction = self._hot_cost_fraction
                degraded = [
                    degraded_gather_multiplier(cost, h, c, hot_fraction)
                    for cost, h, c in zip(multipliers, hot, cold)
                ]
            elif multipliers is not None:
                quality = self.slo_policy.quality
                degraded = [cost * quality for cost in multipliers]
            else:
                degraded = [self.slo_policy.quality] * len(arrivals)
            if min(degraded, default=1.0) <= 0:
                raise ValueError("multiplier must be positive")
        dispatch = self._dispatch
        ranking = self.policy.least_work_ranking
        inflight = self.inflight if self.track_inflight else None
        heap = self._heap
        settled = heap[0][0] if heap else -np.inf
        first = arrivals[0] if arrivals else np.inf
        worst = None
        # Kernel inputs -> (pool, marks, completions, chosen, hits) of the
        # lane that was served with them.
        served_once = {}
        for lane in self._lanes:
            pool = lane.pool
            rank = ranking(pool)
            twin = None
            if rank is None:
                completions = [
                    dispatch((lane,), arrival, query, _FIRST)[0]
                    for query, arrival in zip(indices, arrivals)
                ]
            else:
                hint = multipliers if lane.cost_bearing else None
                costs = degraded if fallback and lane.cost_bearing else hint
                priced = lane.cached and not fallback
                # No straggler window is open: only degradations stretch it.
                factor = self._slowdown_factor(lane.name)
                servers = pool.servers
                ready = pool.ready.tolist()
                key = None
                if lane.twinned:
                    # Everything the kernel reads.  The factor is kept apart
                    # from service_s: penalties price the undegraded time.
                    key = (
                        lane.service_s,
                        factor,
                        lane.cost_bearing,
                        priced,
                        rank,
                        tuple(ready),
                        least_work_state(servers),
                    )
                    if priced:
                        key += (pool.cache_capacity, pool.cache_warm, tuple(pool.fill_rows))
                    twin = served_once.get(key)
                if twin is None:
                    hits: list[float] = []
                    price = None
                    if priced:
                        price = _cache_pricer(pool, costs, hot, cold, total, hits)
                    warmup_s, penalty_queries = rank
                    penalties = None
                    if penalty_queries > 0 and first < pool.ready_threshold + warmup_s:
                        # A replica is still warming: each query's penalty in
                        # seconds, from its undegraded cost hint.
                        service_s = lane.service_s
                        if hint is None:
                            penalties = [penalty_queries * service_s] * len(arrivals)
                        else:
                            penalties = [penalty_queries * (service_s * cost) for cost in hint]
                    chosen = None if inflight is None else []
                    marks = None if key is None else least_work_marks(servers)
                    completions = serve_least_work(
                        servers,
                        ready,
                        arrivals,
                        lane.service_s * factor,
                        costs,
                        price,
                        chosen,
                        warmup_s,
                        penalties,
                    )
                    if key is not None:
                        served_once[key] = (pool, marks, completions, chosen, hits)
                else:
                    # A twin: equal inputs, so the primary's outcome.
                    primary, marks, completions, chosen, hits = twin
                    copy_least_work(primary.servers, marks, servers)
                    if priced:
                        pool.fill_rows[:] = primary.fill_rows
                        pool.cache_warm = primary.cache_warm
                pool.busy[:] = [server.busy_until for server in servers]
                if chosen:
                    name = lane.name
                    for query, index, completion in zip(indices, chosen, completions):
                        if completion > settled:
                            inflight.setdefault((name, servers[index].name), []).append(
                                (completion, query)
                            )
                if priced:
                    # In query order, as _dispatch accumulates them.
                    gather_sum = lane.gather_sum
                    for gathers in total:
                        gather_sum += gathers
                    lane.gather_sum = gather_sum
                    hit_sum = lane.hit_sum
                    for hit in hits:
                        hit_sum += hit
                    lane.hit_sum = hit_sum
                lane.count += len(arrivals)
            if twin is not None:
                # Its completions are the primary's, already in ``worst``.
                continue
            completions = np.array(completions)
            if worst is None:
                worst = completions
            else:
                np.maximum(worst, completions, out=worst)
        query_completions = worst + self.rpc_overhead_s
        latencies = query_completions - served_times
        self.interval_latencies.extend(latencies.tolist())
        if served is not None:
            # Shed queries record the rejection penalty, in arrival order.
            shed_latencies = np.full(count, 2.0 * self.sla_s)
            shed_latencies[served] = latencies
            latencies = shed_latencies
        self.tracker.extend(times + latencies, latencies)
        if fallback:
            self.degraded_indices.update(indices)
            self.interval_degraded += len(arrivals)
        if self.deadline_armed:
            live = self._live_completions
            timeout_s = self.attempt_timeout_s
            for query, arrival, completion in zip(
                indices, arrivals, query_completions.tolist()
            ):
                heapq.heappush(live, completion)
                attempt_deadline = arrival + timeout_s
                if completion > attempt_deadline:
                    self._schedule(attempt_deadline, EventKind.TIMEOUT, query)

    def _dispatch(
        self,
        lanes: Sequence[_DeploymentLane],
        now: float,
        query_index: int,
        mode: int,
    ) -> tuple[float, bool]:
        """Send one attempt of a query to each lane: route, price, submit, register.

        The one place an attempt reaches a replica.  ``mode`` is ``_FIRST``
        (a fresh arrival), ``_RETRY`` (a client re-issue across every lane)
        or ``_REQUEUE`` (a crashed replica's share of the query, re-sent to
        its own lane).  Pricing stretches the service time by active fault
        slowdowns, then applies quality fallback or the embedding-cache
        tier; registering updates the pool's busy mirror, the routing
        policy (with the returned completion time) and the in-flight
        registry.  First attempts and retries enter the lanes' interval
        accounting (offered count, cache hits); a requeue is not a newly
        offered query and does not.  A lane with no routable replica counts
        a failure, and a first attempt is charged the full-SLA-violation
        penalty there, so the query's end-to-end latency shows the dense
        HPA the overload it most needs to react to.

        The query's cost multiplier and gather split are read once from
        the float64 cost columns by ``query_index`` (``item`` yields Python
        floats), its warm-cache pricing is computed from them once, and the
        fallback flag is read at ``now``, so every kind of attempt prices
        the query identically.

        Returns the latest completion over the lanes and whether any lane
        had no routable replica.
        """
        record = mode != _REQUEUE
        fallback = self.fallback_armed
        multipliers = self.query_multipliers
        multiplier = 1.0 if multipliers is None else multipliers.item(query_index)
        select_index = self.policy.select_index
        on_submit = self.policy_on_submit
        slowed = self.degradations or self.slowdowns
        inflight = self.inflight if self.track_inflight else None
        # No crash or eviction lands before the heap top, and settling skips
        # attempts complete by then: the registry takes only the rest.
        heap = self._heap
        settled = heap[0][0] if heap else -np.inf
        if self.caches_on:
            # One query's gather split is shared by every cached lane: read
            # it once, not once per lane.
            hot = self.query_hot.item(query_index)
            cold = self.query_cold.item(query_index)
            total = self.query_total.item(query_index)
        worst = -np.inf
        rejected = False
        for lane in lanes:
            name = lane.name
            service = lane.service_s
            cost = multiplier if lane.cost_bearing else 1.0
            pool = lane.pool
            index = select_index(name, pool, now, (service, cost))
            if index is None:
                rejected = True
                if record:
                    lane.count += 1
                    lane.failures += 1
                    if mode == _FIRST:
                        completion = now + 2.0 * self.sla_s
                        if completion > worst:
                            worst = completion
                continue
            server = pool.servers[index]
            if slowed:
                # Stragglers and transient degradations stretch this shard's
                # service time; outside their windows nothing multiplies.
                service = service * self._slowdown_factor(name, server.name)
            submit_cost = cost
            if fallback and lane.cost_bearing:
                # Quality fallback (ladder level 3): serve cache-hot-only
                # gathers at their exact reduced price (or the policy's flat
                # quality fraction when the cost model has no splits).  The
                # cache tier's accounting is deliberately bypassed — a
                # degraded gather admits nothing and warms nothing.
                if self.query_hot is not None:
                    submit_cost = degraded_gather_multiplier(
                        cost,
                        self.query_hot.item(query_index),
                        self.query_cold.item(query_index),
                        self._hot_cost_fraction,
                    )
                else:
                    submit_cost = cost * self.slo_policy.quality
            elif lane.cached:
                # Embedding-cache tier: the selected replica's cache serves a
                # fill-dependent fraction of this query's gathers at the hit
                # cost and admits the misses (warming itself up).
                submit_cost, hits = pool.cached_price(index, cost, hot, cold, total)
                if record:
                    lane.gather_sum += total
                    lane.hit_sum += hits
            completion = server.submit(now, service, submit_cost)
            pool.busy[index] = completion
            if on_submit is not None:
                on_submit(name, server, completion)
            if inflight is not None and completion > settled:
                inflight.setdefault((name, server.name), []).append(
                    (completion, query_index)
                )
            if completion > worst:
                worst = completion
            if record:
                lane.count += 1
        return worst, rejected

    # ------------------------------------------------------------------
    # SLO watchdog: shedding, deadlines/retries, fallback, escalation
    # ------------------------------------------------------------------
    def _shed_query(self, arrival: float) -> None:
        """Admission-control rejection: no lane, server or cache is touched.

        A shed query is charged the same full-SLA-violation penalty as a
        capacity rejection, but it is *voluntary*: it lands in
        ``shed_queries`` and the shed series, and is excluded from the
        availability/reject signals the watchdog itself consumes (otherwise
        shedding would read as an availability breach and the ladder could
        never recover).
        """
        tracker_index = self.tracker.num_samples
        self.rejected_indices.add(tracker_index)
        self.shed_count += 1
        self.interval_shed += 1
        latency = 2.0 * self.sla_s
        self.tracker.record(arrival + latency, latency)

    def _prune_live(self, now: float) -> int:
        """Live (non-retry) in-flight queries at ``now``, lazily pruned."""
        live = self._live_completions
        while live and live[0] <= now:
            heapq.heappop(live)
        return len(live)

    def _prune_retries(self, now: float) -> int:
        """Live retries at ``now``: unresolved re-issues + scheduled ones."""
        live = self._retry_resolutions
        while live and live[0] <= now:
            heapq.heappop(live)
        return len(live) + self._retries_scheduled

    def observe_slo(self, now: float) -> None:
        """Feed the watchdog one sample tick (no-op when the plane is off).

        Runs inside the SAMPLE phase *before* ``interval_latencies`` clears,
        and hands the watchdog that list itself: exactly the interval's
        end-to-end latencies (shed queries excluded).  Each ladder decision
        is pushed as a typed WATCHDOG event at ``now``, after the control
        tick, so it applies in deterministic event order in every execution
        mode.
        """
        if not self.watchdog_on:
            return
        arrivals = self.interval_arrivals
        admitted = arrivals - self.interval_shed
        involuntary = self.interval_rejected + self.interval_timeouts
        if admitted > 0:
            availability = max(0.0, 1.0 - involuntary / admitted)
            reject_rate = self.interval_rejected / admitted
        else:
            availability = 1.0 if involuntary == 0 else 0.0
            reject_rate = 0.0 if involuntary == 0 else 1.0
        actions = self.watchdog.observe(
            now, self.interval_latencies, availability, reject_rate
        )
        for action in actions:
            self.push(now, EventKind.WATCHDOG, action)
        series = self.watchdog_series
        series["level"].append(float(self.watchdog.level))
        series["shed"].append(self.interval_shed / arrivals if arrivals else 0.0)
        series["timeouts"].append(float(self.interval_timeouts))
        series["degraded"].append(float(self.interval_degraded))

    def apply_watchdog(self, now: float, action: tuple) -> None:
        """Apply one ladder action popped from the heap as a WATCHDOG event."""
        kind = action[0]
        if kind in ("degrade", "recover"):
            level = action[1]
            self.shed_armed = level >= 1
            self.deadline_armed = level >= 2
            self.fallback_armed = level >= 3
        elif (
            self.detector is not None
            and not self.replan_in_progress
            and self.detector.escalate(now)
        ):
            # Escalation: hand the incident to the re-planner, which still
            # enforces its own fire budget and cooldown.
            self.push(now, EventKind.REPLAN, "fire")

    def _schedule(self, at: float, kind: EventKind, query_index: int) -> None:
        """Push a query's one live TIMEOUT or RETRY event; its token is its sequence number."""
        self.pending_event[query_index] = self.push(at, kind, query_index)

    def _claim(self, query_index: int, token: int) -> bool:
        """Whether a popped TIMEOUT/RETRY event is the query's live one.

        A stale event (the query re-entered the pipeline since) or a query
        already settled as a rejection, drop or timeout is inert.
        """
        if self.pending_event.get(query_index) != token:
            return False
        del self.pending_event[query_index]
        return not (
            query_index in self.rejected_indices
            or query_index in self.dropped_indices
            or query_index in self.timeout_indices
        )

    def handle_timeout(self, now: float, query_index: int, token: int) -> None:
        """One attempt's timeout fired: retry within budget or finalize."""
        if not self._claim(query_index, token):
            return
        completion, _ = self.tracker.sample(query_index)
        if completion <= now:
            # The attempt settled before its timeout (a retry pulled the
            # completion in); nothing to do.
            self.retry_attempts.pop(query_index, None)
            return
        self._try_retry(now, query_index)

    def _try_retry(self, now: float, query_index: int) -> bool:
        """Schedule a budgeted backoff retry, or finalize the timeout.

        Returns ``True`` when a RETRY event was scheduled.  A retry launches
        only when budget remains, the backoff still lands inside the query's
        hard deadline, and the storm guard admits it; the jitter draw comes
        from the [seed, 5] stream and happens only for retries that
        actually launch.
        """
        policy = self.slo_policy
        deadline_at = self.arrival_at(query_index) + self.deadline_s
        attempts = self.retry_attempts.get(query_index, 0)
        if attempts >= policy.retries or now >= deadline_at:
            self._finalize_timeout(now, query_index)
            return False
        if not retry_allowed(
            self._prune_retries(now), self._prune_live(now), policy.storm
        ):
            self._finalize_timeout(now, query_index)
            return False
        delay = policy.backoff_s * (2.0**attempts)
        if policy.jitter > 0.0:
            delay *= 1.0 + policy.jitter * float(self.slo_rng.random())
        retry_at = now + delay
        if retry_at >= deadline_at:
            self._finalize_timeout(now, query_index)
            return False
        self.retry_attempts[query_index] = attempts + 1
        self._retries_scheduled += 1
        self._schedule(retry_at, EventKind.RETRY, query_index)
        return True

    def _finalize_timeout(self, now: float, query_index: int) -> None:
        """Give up on a query: its deadline contract ends in a timeout.

        The client learns of the failure no earlier than its attempt timeout
        and no later than the hard deadline; the recorded latency is that
        give-up point (conservation moves the query from completions to
        ``timeout_queries``).
        """
        arrival = self.arrival_at(query_index)
        deadline_at = arrival + self.deadline_s
        give_up = min(max(now, arrival + self.attempt_timeout_s), deadline_at)
        self.timeout_indices.add(query_index)
        self.degraded_indices.discard(query_index)
        self.interval_timeouts += 1
        self.retry_attempts.pop(query_index, None)
        self.tracker.update(query_index, give_up, give_up - arrival)

    def handle_retry(self, now: float, query_index: int, token: int) -> None:
        """Re-issue one query across all lanes (a scheduled client retry)."""
        self._retries_scheduled -= 1
        if not self._claim(query_index, token):
            return
        self.retried_count += 1
        arrival = self.arrival_at(query_index)
        attempt_deadline = min(now + self.attempt_timeout_s, arrival + self.deadline_s)
        fallback = self.fallback_armed
        worst, failed = self._dispatch(self._lanes, now, query_index, _RETRY)
        if failed or worst == -np.inf:
            # The retry itself found no capacity: back off again within the
            # same budget, or finalize.
            self._try_retry(now, query_index)
            return
        new_total = worst + self.rpc_overhead_s
        latency = new_total - arrival
        self.tracker.update(query_index, new_total, latency)
        self.interval_latencies.append(latency)
        if fallback and query_index not in self.degraded_indices:
            self.degraded_indices.add(query_index)
            self.interval_degraded += 1
        heapq.heappush(self._retry_resolutions, min(new_total, attempt_deadline))
        if new_total > attempt_deadline:
            self._schedule(attempt_deadline, EventKind.TIMEOUT, query_index)
        else:
            self.retry_attempts.pop(query_index, None)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _slowdown_factor(self, deployment_name: str, server_name: str | None = None) -> float:
        """Combined service-time stretch of every window active on a replica.

        Overlapping windows compound multiplicatively (a straggler inside a
        deployment-wide degradation is slow twice over).  Without a
        ``server_name``, only the deployment-wide degradations.
        """
        factor = 1.0
        for value in self.degradations.get(deployment_name, ()):
            factor *= value
        for value in self.slowdowns.get((deployment_name, server_name), ()):
            factor *= value
        return factor

    def _pick_target(
        self, deployment: str | None, replica: int | None
    ) -> tuple[_DeploymentLane, str] | None:
        """Choose a (lane, replica name) fault victim, deterministically.

        ``deployment`` narrows by name substring; ``replica`` picks by index
        (wrapped) over the replicas in creation order; anything unspecified
        is drawn from the dedicated fault RNG.  Replica order is the servers
        dict's insertion order — creation order — NOT name order: replica
        names embed a process-global container counter, so sorting by name
        would make victim choice depend on what ran earlier in the process
        (breaking the serial == parallel sweep contract).  Returns ``None``
        when no matching live replica exists (the fault misfires).
        """
        candidates = [
            lane
            for lane in self._lanes
            if (deployment is None or deployment in lane.name) and lane.servers
        ]
        if not candidates:
            return None
        if len(candidates) == 1:
            target = candidates[0]
        else:
            target = candidates[int(self.fault_rng.integers(len(candidates)))]
        names = list(target.servers)
        if replica is not None:
            victim = names[replica % len(names)]
        else:
            victim = names[int(self.fault_rng.integers(len(names)))]
        return target, victim

    def crash_replica(self, now: float, event: ReplicaCrash, cluster: Cluster) -> None:
        """Kill one replica: evict its container and settle in-flight work."""
        target = self._pick_target(event.deployment, event.replica)
        if target is None:
            return
        lane, victim = target
        self._kill_server(now, lane, victim, event.policy)
        cluster.fail_replica(victim, now)
        self.faults_injected += 1

    def mark_draining(self, names: set[str]) -> bool:
        """Stop routing new traffic to the named replicas (drain grace phase).

        Counts the drain once per *struck* tenant in ``faults_injected``
        (a drain of a node hosting none of the tenant's replicas does not
        count as having struck it).
        """
        struck = False
        for lane in self._lanes:
            hit = False
            for name, server in lane.servers.items():
                if name in names:
                    server.start_drain()
                    hit = True
            if hit:
                lane.pool.invalidate()
                struck = True
        if struck:
            self.faults_injected += 1
        return struck

    def on_replicas_lost(self, now: float, lost_names: set[str], policy: str) -> None:
        """Settle the fallout of replicas evicted cluster-side (node drain)."""
        for lane in self._lanes:
            # Iterate in the servers dict's insertion (creation) order, not
            # name order — see _pick_target for why name order is unstable.
            victims = [n for n in lane.servers if n in lost_names]
            for victim in victims:
                self._kill_server(now, lane, victim, policy)

    def _kill_server(
        self, now: float, lane: _DeploymentLane, victim: str, policy: str
    ) -> None:
        server = lane.servers.pop(victim)
        server.fail()
        lane.pool.invalidate()
        lane.retire(server)
        self.slowdowns.pop((lane.name, victim), None)
        # Hold the HPA's desired count steady while the replacement starts.
        self.autoscaler.notice_capacity_loss(lane.name, now)
        self._reassign_inflight(now, lane, victim, policy)

    def _reassign_inflight(
        self, now: float, lane: _DeploymentLane, victim: str, policy: str
    ) -> None:
        """Re-queue or drop the dead replica's unfinished queries."""
        for completion, query_index in self.inflight.pop((lane.name, victim), []):
            if completion <= now:
                continue  # finished before the failure
            if query_index in self.dropped_indices or query_index in self.rejected_indices:
                continue  # the query already failed elsewhere
            if query_index in self.timeout_indices:
                continue  # the client already gave up on it
            if query_index in self.pending_event:
                # The client is already between attempts (a TIMEOUT or RETRY
                # event is live): losing the abandoned attempt's server-side
                # work changes nothing for it.
                continue
            failed = True
            if policy == "requeue":
                # Re-sent to a survivor on the same lane, priced there (its
                # cache, not the victim's warm rows, serves the gathers).
                new_completion, failed = self._dispatch((lane,), now, query_index, _REQUEUE)
            if not failed:
                self.requeued_count += 1
                lane.requeues += 1
                # The re-queued shard finishes later than anything recorded
                # for this query so far, so it now defines the end-to-end
                # latency.
                old_completion, _ = self.tracker.sample(query_index)
                new_total = new_completion + self.rpc_overhead_s
                if new_total > old_completion:
                    arrival = self.arrival_at(query_index)
                    self.tracker.update(query_index, new_total, new_total - arrival)
                continue
            if self.deadline_armed:
                # Armed deadlines convert the drop into a client retry when
                # budget and storm guard allow: the client sees its
                # connection die and re-issues the whole query.
                if not self._try_retry(now, query_index):
                    # _try_retry finalized it as a timeout instead of a drop.
                    lane.failures += 1
                continue
            # Dropped: charge the rejection penalty (the query never
            # completed, so its recorded latency becomes the penalty).
            self.dropped_indices.add(query_index)
            lane.failures += 1
            if self.watchdog_on:
                self.interval_rejected += 1
            _, old_latency = self.tracker.sample(query_index)
            latency = max(old_latency, 2.0 * self.sla_s)
            self.tracker.update(query_index, self.arrival_at(query_index) + latency, latency)

    def start_straggler(self, now: float, event: StragglerSlowdown) -> None:
        """Slow one replica down for the event's window."""
        target = self._pick_target(event.deployment, event.replica)
        if target is None:
            return
        lane, victim = target
        self.slowdowns.setdefault((lane.name, victim), []).append(float(event.factor))
        self.faults_injected += 1
        self.push(
            now + event.duration_s,
            EventKind.RECOVERY,
            ("straggler-end", lane.name, victim, float(event.factor)),
        )

    def start_degradation(self, now: float, event: TransientDegradation) -> None:
        """Slow every replica of the matched deployments down for a window."""
        names = tuple(
            lane.name
            for lane in self._lanes
            if event.deployment is None or event.deployment in lane.name
        )
        if not names:
            return
        for name in names:
            self.degradations.setdefault(name, []).append(float(event.factor))
        self.faults_injected += 1
        self.push(
            now + event.duration_s, EventKind.RECOVERY, ("degrade-end", names, float(event.factor))
        )

    @staticmethod
    def _remove_factor(stacks: dict, key, factor: float) -> None:
        """Remove one occurrence of a window's factor from a stack."""
        stack = stacks.get(key)
        if stack is None:
            return  # the replica was killed (its stack was discarded)
        if factor in stack:
            stack.remove(factor)
        if not stack:
            del stacks[key]

    def recover(self, action: tuple) -> None:
        """End one windowed fault, leaving any overlapping windows in force."""
        if action[0] == "straggler-end":
            self._remove_factor(self.slowdowns, (action[1], action[2]), action[3])
        elif action[0] == "degrade-end":
            for name in action[1]:
                self._remove_factor(self.degradations, name, action[2])

    # ------------------------------------------------------------------
    # Online re-planning
    # ------------------------------------------------------------------
    def observe_drift(self, now: float) -> None:
        """Feed the detector this interval's end-to-end p95 (if replanning).

        Called from :meth:`sample` before ``interval_latencies`` is cleared;
        the p95 is taken over that one buffer (``None`` for an interval that
        served nothing).  A fire pushes a typed REPLAN event at ``now``, so
        the migration stays on the event timeline and starts after the
        control tick, on a settled cluster.
        """
        if self.detector is None or self.replan_in_progress:
            return
        latencies = self.interval_latencies
        p95_s = linear_percentile(latencies, 95) if latencies else None
        if self.detector.observe(now, p95_s):
            self.push(now, EventKind.REPLAN, "fire")

    def start_replan(self, now: float) -> float:
        """Plan the successor deployment and schedule the shard-copy migration.

        The successor plan is a fresh DP partitioning of the same workload at
        the same target QPS against the distribution *measured* at ``now``
        (the drift mixture; the original distribution when replanning without
        drift).  Shard copies occupy every embedding replica as synthetic
        work — a replica busy copying serves queries later, which is the
        migration's cost — and the returned cutover time is when the last
        copy lands.  Everything here is deterministic: the planner draws no
        randomness and the copy schedule is fixed by replica state.
        """
        from repro.core.planner import ElasticRecPlanner

        self.replan_in_progress = True
        measured = (
            self.drift_model.at(now) if self.drift_on else self.cost_model.distribution
        )
        num_tables = self.plan.workload.embedding.num_tables
        num_shards = len(self.plan.sharding.shards_for_table(0))
        successor = ElasticRecPlanner(self.plan.cluster).plan(
            self.plan.workload,
            self.plan.target_qps,
            num_shards=num_shards,
            table_distributions=[measured] * num_tables,
        )
        self.pending_successor = successor
        copy_gb_per_s = self.replan_policy.copy_gb_per_s
        cutover_at = now
        for lane in self._lanes:
            if lane.dense:
                # Dense shards hold no embedding rows; nothing to copy.
                continue
            copy_s = lane.deployment.spec.resources.memory_bytes / (copy_gb_per_s * 1e9)
            for server in lane.servers.values():
                completion = server.submit(now, copy_s, 1.0)
                self.policy.on_submit(lane.name, server, completion)
                if completion > cutover_at:
                    cutover_at = completion
            # Copies are synthetic work, not queries: they never enter the
            # in-flight registry (a crash mid-copy just loses the copy), but
            # the pool's busy mirror must see them — rebuild it lazily.
            lane.pool.invalidate()
        return cutover_at

    def apply_replan(self, now: float) -> None:
        """Cut over to the pending successor plan.

        Service times and replica targets follow the successor's deployments
        (matched by name: same workload, same shard count, so the names line
        up).  Remaining query multipliers renormalise from the start-pool
        mean to the mixture mean at cutover — the successor plan's per-shard
        QPS estimates already price the drifted distribution, so keeping the
        old normaliser would double-count the drift.  Finally the PR-7
        invalidation storm: every replica's cache restarts cold on the new
        shard boundaries and re-warms from served traffic.
        """
        successor = self.pending_successor
        self.pending_successor = None
        self.replan_in_progress = False
        if successor is None:
            return
        by_name = {d.name: d for d in successor.deployments}
        for lane in self._lanes:
            spec = by_name.get(lane.name)
            if spec is None:
                continue
            lane.service_s = 1.0 / spec.per_replica_qps
            lane.deployment.desired_replicas = spec.replicas
            if self.autoscale:
                # Hold the HPA off while the new capacity materialises, the
                # same grace a crash replacement gets.
                self.autoscaler.notice_capacity_loss(lane.name, now)
        if self.drift_on:
            start_mean, end_mean = self._drift_means
            weight = float(self.drift_model.weight_at(now))
            mixture_mean = (1.0 - weight) * start_mean + weight * end_mean
            if mixture_mean > 0.0:
                scale = start_mean / mixture_mean
                begin = int(np.searchsorted(self.arrivals, now, side="right"))
                self.query_multipliers[begin:] *= scale
        self.invalidate_caches()
        self.replans_applied += 1

    def record_interval_metrics(self, now: float, metrics) -> None:
        """Record the interval's HPA inputs into the cluster's ``metrics``.

        Every lane records ``<name>/queries`` (what a throughput target
        reads); the dense/monolithic lanes also record ``<name>/latency_s``,
        the p95 of the interval's end-to-end latencies, computed once.
        """
        for lane in self._lanes:
            metrics.record(f"{lane.name}/queries", float(lane.count), now)
        if self.interval_latencies:
            p95_s = linear_percentile(self.interval_latencies, 95)
            for lane in self._dense_lanes:
                metrics.record(f"{lane.name}/latency_s", p95_s, now)

    def sample(self, now: float) -> None:
        # Drift detection reads the interval latency buffer this method is
        # about to clear, so it observes first (a no-op unless replanning).
        self.observe_drift(now)
        # The SLO watchdog reads the same buffer plus the interval arrival/
        # failure counters (a no-op when the control plane is off).
        self.observe_slo(now)
        self.sample_times.append(now)
        self.memory_series.append(self.allocated_memory_gb)
        window_start = now - self.sample_interval_s
        for lane in self._lanes:
            lane.sample(now, window_start)
        if self.track_inflight:
            # Prune settled in-flight entries so the registry stays bounded.
            for key, entries in self.inflight.items():
                self.inflight[key] = [e for e in entries if e[0] > now]
        self._start_interval()
        if self.stream is not None:
            # Streamed flush hooks ride the coalesced control tick: series
            # chunks every `flush_series_every` samples, tracker spills as
            # soon as a threshold's worth of samples is settled.
            self._pending_series_samples += 1
            if self._pending_series_samples >= self.stream.flush_series_every:
                self._flush_series_chunk()
            self._maybe_spill_tracker()

    # ------------------------------------------------------------------
    # Streamed series sink
    # ------------------------------------------------------------------
    def _spill_watermark(self) -> int:
        """Highest tracker index that is settled (safe to spill).

        Without fault tracking no recorded sample is ever rewritten, so
        everything recorded is settled.  With the in-flight registry active,
        a crash may still rewrite any in-flight query's sample, so the
        watermark stops at the oldest in-flight index.
        """
        watermark = self.tracker.num_samples
        if self.track_inflight:
            for entries in self.inflight.values():
                for _, index in entries:
                    if index < watermark:
                        watermark = index
        if self.pending_event:
            # A live TIMEOUT/RETRY event may still rewrite its query's
            # sample, so the watermark also stops at the oldest pending one.
            pending_min = min(self.pending_event)
            if pending_min < watermark:
                watermark = pending_min
        return watermark

    def _maybe_spill_tracker(self) -> None:
        watermark = self._spill_watermark()
        if watermark - self.tracker.spilled_samples >= self.stream.spill_threshold:
            self.tracker.spill(watermark, self._write_query_chunk)

    def _write_query_chunk(self, times: np.ndarray, lats: np.ndarray) -> None:
        self.stream_writer.append("queries", completion_times=times, latencies_s=lats)

    def _series_chunk(self) -> dict[str, np.ndarray]:
        """Stack the series sampled since the last chunk, and start afresh.

        Per-deployment series become one row per lane, in lane order; cache
        hit rates follow the manifest's ``cached_deployments`` and watchdog
        series :data:`WATCHDOG_SERIES_KEYS`, each key present only when that
        feature is on.  An in-memory run stacks its whole run into one chunk;
        a streamed run spools one every ``flush_series_every`` samples.
        """
        times = np.asarray(self.sample_times)
        lanes = self._lanes
        chunk = dict(
            sample_times=times,
            target_qps=np.asarray(self.pattern.rate_at(times), dtype=np.float64),
            memory_gb=np.asarray(self.memory_series),
            # Integer rows keep their dtype in a chunk with no samples too.
            replica_counts=np.asarray([lane.replica_rows for lane in lanes], dtype=np.int64),
            utilization=np.asarray([lane.utilization_rows for lane in lanes]),
            availability=np.asarray([lane.availability_rows for lane in lanes]),
            requeues=np.asarray([lane.requeue_rows for lane in lanes], dtype=np.int64),
            batch_occupancy=np.asarray([lane.occupancy_rows for lane in lanes]),
        )
        hit_rates = [lane.hit_rate_rows for lane in lanes if lane.cached]
        if hit_rates:
            chunk["cache_hit_rate"] = np.asarray(hit_rates)
        if self.watchdog_series:
            chunk["watchdog"] = np.asarray(
                [self.watchdog_series[key] for key in WATCHDOG_SERIES_KEYS]
            )
        self._start_series_chunk()
        return chunk

    def _start_series_chunk(self) -> None:
        """Empty every series accumulator, the tenant's and its lanes'."""
        self.sample_times: list[float] = []
        self.memory_series: list[float] = []
        for lane in self._lanes:
            lane.start_series()
        self.watchdog_series: dict[str, list[float]] = (
            {key: [] for key in WATCHDOG_SERIES_KEYS} if self.watchdog_on else {}
        )

    def _flush_series_chunk(self) -> None:
        """Write the per-interval series accumulated since the last flush."""
        self.stream_writer.append("series", **self._series_chunk())
        self._pending_series_samples = 0

    def manifest(self) -> dict:
        """The run's scalar result fields by name, plus its series layout.

        A streamed run commits this as its tenant manifest; both paths build
        their result from it through :func:`result_from_chunks`.
        """
        watchdog = self.watchdog
        return {
            "tenant": self.name,
            "plan_name": self.plan.name,
            "strategy": self.plan.strategy,
            "sla_s": self.sla_s,
            "routing": self.policy.name,
            "cost_model": self.cost_model.name,
            "max_batch": self.max_batch,
            "faults": self.faults_name,
            "cache_mb": self.cache_mb,
            "rejected_queries": len(self.rejected_indices),
            "dropped_queries": len(self.dropped_indices),
            "requeued_queries": self.requeued_count,
            "faults_injected": self.faults_injected,
            "drift": self.drift_name,
            "replan": self.replan_name,
            "replans_applied": self.replans_applied,
            "slo": self.slo_name,
            "timeout_queries": len(self.timeout_indices),
            "degraded_queries": len(self.degraded_indices),
            "shed_queries": self.shed_count,
            "retried_queries": self.retried_count,
            "slo_tier1_breaches": watchdog.tier1_breaches if watchdog else 0,
            "slo_tier2_flags": watchdog.tier2_flags if watchdog else 0,
            "slo_escalations": watchdog.escalations if watchdog else 0,
            "slo_recoveries": watchdog.recoveries if watchdog else 0,
            "sample_interval_s": self.sample_interval_s,
            "deployments": [lane.name for lane in self._lanes],
            "cached_deployments": [lane.name for lane in self._lanes if lane.cached],
            "num_samples": self.tracker.num_samples,
        }

    def finish_run_streamed(self) -> None:
        """Flush everything left and commit the tenant manifest.

        The :class:`SimulationResult` is rebuilt from the spool by
        :func:`repro.serving.sharding.merge_stream`.
        """
        self._flush_series_chunk()
        self.tracker.spill(self.tracker.num_samples, self._write_query_chunk)
        self.stream_writer.write_meta(
            {"schema": 1, "status": "complete", **self.manifest()}
        )

    def finish_run(self) -> SimulationResult:
        return result_from_chunks(
            self.manifest(), [self._series_chunk()], self.tracker
        )


def _apply_fault(
    now: float,
    event,
    tenant_index: int,
    runtimes: Sequence[_TenantRuntime],
    cluster: Cluster,
) -> None:
    """Dispatch one fault event from a tenant's timeline."""
    runtime = runtimes[tenant_index]
    if isinstance(event, ReplicaCrash):
        runtime.crash_replica(now, event, cluster)
    elif isinstance(event, NodeDrain):
        # Draining hits the shared node pool, so *every* tenant's replicas on
        # the node are affected — not just the tenant whose timeline fired.
        # Phase 1 (now): cordon the node and mark its replicas draining, so
        # routing stops sending them new queries while queued work keeps
        # running.  Phase 2 (now + grace_s, scheduled below): evict the
        # containers and settle still-unfinished queries per the in-flight
        # policy.  A drain aimed past the pool misfires (like a crash aimed
        # at an empty deployment) instead of aborting the run.
        try:
            node = cluster.node(event.node)
        except KeyError:
            return
        node.cordon()
        draining = {container.name for container in node.containers}
        for affected in runtimes:
            affected.mark_draining(draining)
        runtime.push(
            now + event.grace_s, EventKind.RECOVERY, ("drain-evict", event.node, event.policy)
        )
        if event.duration_s > 0:
            runtime.push(now + event.duration_s, EventKind.RECOVERY, ("uncordon", event.node))
    elif isinstance(event, StragglerSlowdown):
        runtime.start_straggler(now, event)
    elif isinstance(event, TransientDegradation):
        runtime.start_degradation(now, event)
    else:  # pragma: no cover - the fault model only emits the types above
        raise TypeError(f"unknown fault event {event!r}")


def _cache_pricer(
    pool: ReplicaPool,
    multipliers: list[float],
    hot: list[float],
    cold: list[float],
    total: list[float],
    hits: list[float],
) -> Callable[[int, int], float]:
    """``price(index, query)`` for :func:`serve_least_work` on a cached lane.

    Prices the ``query``-th arrival of a chunk on replica ``index`` through
    the pool's :meth:`~ReplicaPool.cached_price` and appends its expected
    hits to ``hits``, in query order.
    """
    cached_price = pool.cached_price

    def price(index: int, query: int) -> float:
        multiplier, hit = cached_price(
            index, multipliers[query], hot[query], cold[query], total[query]
        )
        if multiplier <= 0:
            raise ValueError("multiplier must be positive")
        hits.append(hit)
        return multiplier

    return price


def _drive(
    cluster: Cluster,
    runtimes: Sequence[_TenantRuntime],
    patterns: Sequence[TrafficPattern],
    probe=None,
    on_event: Callable[[float, int], None] | None = None,
) -> list:
    """Run every tenant's traffic through the run's shared event heaps.

    Returns one entry per runtime: a :class:`SimulationResult` for in-memory
    runtimes, ``None`` for streamed ones (their result lives in the spool).

    Events other than arrivals share one heap; each tenant's one pending
    ARRIVAL waits in a second heap, and the loop pops the smaller top.  A
    tenant's ARRIVAL event starts a drain that serves its arrivals in order
    until one must wait for the event-heap top, exactly the order one
    ARRIVAL event per arrival would pop in for that tenant.  Other tenants'
    arrivals, earlier or equal, wait for their own drains: tenants share
    only the cluster, and only non-ARRIVAL events change it, so that order
    changes no result.  On ``fleet_streamed`` (seed 0) a run pops 1,920
    ARRIVAL events for 35,976 queries: one per tenant per control tick.
    The popped arrival always goes through
    :meth:`_TenantRuntime.serve_query`; when the tenant's observed state
    allows it (:meth:`_TenantRuntime.chunk_eligible`), the rest of the drain
    is served lane by lane by :meth:`_TenantRuntime.serve_chunk`, otherwise
    query by query.  While deadlines are armed, a chunk is one window: the
    arrivals up to its first arrival plus the attempt timeout, inclusive
    (an arrival ties ahead of a TIMEOUT).  A TIMEOUT the window's queries
    push lands at or after its last arrival, exactly as per-query serving
    would meet it; after each window the heap top is re-read and the drain
    goes on with the next window.  On ``incident_slo`` (seed 0) this leaves
    142 of 114,815 arrivals to ``serve_query``, down from 54,065.

    ``probe``, if given, is called as ``probe(now)`` after each tenant sample
    point (at equal timestamps every reconcile precedes every sample, so the
    probe always observes a settled cluster).  ``on_event``, if given, is
    called as ``on_event(now, kind)`` for every *logical* event — control
    ticks are coalesced into one heap event per boundary timestamp, but the
    observer still sees the individual AUTOSCALE/RECONCILE/SAMPLE phases in
    the historical order; the property-based tests use this to assert
    event-time monotonicity.
    """
    heap: list[tuple[float, int, int, object]] = []
    arrival_heap: list[tuple[float, int, int, object]] = []
    seq = itertools.count()
    for tenant_index, (runtime, pattern) in enumerate(zip(runtimes, patterns)):
        runtime.begin_run(pattern)
        runtime.bind(heap, arrival_heap, seq, tenant_index)

    # Coalesced control ticks: one heap event per unique boundary timestamp
    # carries every control phase landing there — each resident tenant's
    # AUTOSCALE evaluation, the shared cluster RECONCILE, each tenant's
    # SAMPLE point — in exactly the order the historical per-phase events
    # popped at that timestamp (tenants in registration order, reconcile
    # between the autoscale and sample phases).
    boundary_tenants: dict[float, list[int]] = {}
    for tenant_index, runtime in enumerate(runtimes):
        for boundary in runtime.boundaries:
            boundary_tenants.setdefault(float(boundary), []).append(tenant_index)
    for boundary, resident_tenants in boundary_tenants.items():
        heapq.heappush(heap, (boundary, EventKind.AUTOSCALE, next(seq), resident_tenants))
    for runtime in runtimes:
        if runtime.num_served:
            runtime.push_arrival(0)
    # Fault timelines are empty unless a tenant configured a fault model, so
    # a healthy run pushes nothing here (and consumes no sequence numbers).
    for runtime in runtimes:
        for at_s, event in runtime.fault_timeline:
            runtime.push(float(at_s), EventKind.FAULT, event)
    if any(runtime.fault_timeline for runtime in runtimes):
        # One tenant's node drain can evict any tenant's replicas, so every
        # tenant must maintain its in-flight registry to settle the fallout.
        for runtime in runtimes:
            runtime.track_inflight = True

    # Both heaps order by (time, kind, seq), so popping the smaller top is
    # the order one merged heap would pop in.  A tenant's last control tick
    # is queued after every arrival it serves, so while an arrival is
    # pending the event heap is never empty.
    while heap:
        if arrival_heap and arrival_heap[0] < heap[0]:
            now, kind, token, payload = heapq.heappop(arrival_heap)
        else:
            now, kind, token, payload = heapq.heappop(heap)
        if kind == EventKind.AUTOSCALE:
            # Coalesced control tick: autoscale each resident tenant, run the
            # shared reconcile, then sample each resident tenant — the exact
            # order the historical AUTOSCALE/RECONCILE/SAMPLE events popped.
            # A sample may push the tenant's REPLAN fire and WATCHDOG actions
            # at ``now``; they pop after this tick, on a settled cluster.
            for tenant_index in payload:
                if on_event is not None:
                    on_event(now, EventKind.AUTOSCALE)
                runtime = runtimes[tenant_index]
                runtime.record_interval_metrics(now, cluster.metrics)
                if runtime.autoscale and runtime.autoscaler.should_evaluate(now):
                    runtime.autoscaler.evaluate(runtime.deployments, cluster.metrics, now)
            if on_event is not None:
                on_event(now, EventKind.RECONCILE)
            cluster.reconcile(now)
            for runtime in runtimes:
                runtime.sync_servers(now)
            for tenant_index in payload:
                if on_event is not None:
                    on_event(now, EventKind.SAMPLE)
                runtimes[tenant_index].sample(now)
                if probe is not None:
                    probe(now)
            if any(runtime.stream is not None for runtime in runtimes):
                # Streamed (memory-bounded) runs also cap the HPA metric
                # history: the autoscalers only ever read trailing windows,
                # so samples behind every tenant's largest window are dead
                # weight.  Unstreamed runs keep the full history — tests and
                # probes may inspect it after the run.
                retention = max(
                    runtime.autoscaler.metric_window_s for runtime in runtimes
                )
                cluster.metrics.prune(now - 2.0 * retention)
            continue
        if on_event is not None:
            on_event(now, kind)
        tenant_index, action = payload
        runtime = runtimes[tenant_index]
        if kind == EventKind.ARRIVAL:
            index = action
            arrivals = runtime.arrivals
            serve = runtime.serve_query
            # An arrival at t goes before the heap top at h iff t <= h (no
            # pushed kind ranks before ARRIVAL).  serve_query may push TIMEOUT
            # events, so the top is re-read after every query; ``top = None``
            # forces that re-read after the popped arrival, which is always
            # served.  The tenant's last control tick is queued after every
            # served arrival, so the heap is never empty.
            top = None
            stop = index + 1
            while index < stop:
                for arrival in arrivals[index:stop].tolist():
                    serve(arrival, index)
                    index += 1
                    if heap[0] is not top:
                        break
                while True:
                    top = heap[0]
                    stop = max(int(np.searchsorted(arrivals, top[0], side="right")), index)
                    if index >= stop or not runtime.chunk_eligible():
                        break
                    end = stop
                    if runtime.deadline_armed:
                        # A query's TIMEOUT lands at its arrival plus the
                        # attempt timeout, so within this window it lands
                        # at or after the last arrival (which ties ahead).
                        end = min(
                            end,
                            int(
                                np.searchsorted(
                                    arrivals,
                                    arrivals[index] + runtime.attempt_timeout_s,
                                    side="right",
                                )
                            ),
                        )
                    runtime.serve_chunk(index, end)
                    index = end
            if index < runtime.num_served:
                runtime.push_arrival(index)
        elif kind == EventKind.FAULT:
            _apply_fault(now, action, tenant_index, runtimes, cluster)
        elif kind == EventKind.RECOVERY:
            if action[0] == "uncordon":
                cluster.uncordon_node(action[1])
            elif action[0] == "drain-evict":
                # End of a drain's grace period: evict whatever is still on
                # the (cordoned) node and settle its in-flight queries.
                lost = set(cluster.evict_node(action[1], now))
                if lost:
                    for affected in runtimes:
                        affected.on_replicas_lost(now, lost, action[2])
            else:
                runtime.recover(action)
        elif kind == EventKind.REPLAN:
            if action == "fire":
                runtime.push(runtime.start_replan(now), EventKind.REPLAN, "cutover")
            else:  # "cutover"
                runtime.apply_replan(now)
        elif kind == EventKind.WATCHDOG:
            runtime.apply_watchdog(now, action)
        elif kind == EventKind.TIMEOUT:
            runtime.handle_timeout(now, action, token)
        else:  # EventKind.RETRY
            runtime.handle_retry(now, action, token)

    return [
        runtime.finish_run_streamed() if runtime.stream is not None else runtime.finish_run()
        for runtime in runtimes
    ]


# ----------------------------------------------------------------------
# Multi-tenant cluster simulation
# ----------------------------------------------------------------------
def check_run_options(options) -> None:
    """Validate the run options a :class:`TenantSpec` and a sweep share.

    ``options`` is either config: both carry ``seed``,
    ``sample_interval_s``, ``cost_model``, ``max_batch``, ``cache_mb``,
    ``faults``, ``drift``, ``replan`` and ``slo``.  Raises a one-line
    :class:`ValueError` (a :class:`~repro.serving.spec.SpecError` for a
    malformed control spec), so bad input fails in the parent process before
    any worker starts.  The cache and drift need per-query gather splits;
    that is read from the cost-model name or an instance's
    ``supports_gather_splits``, without building a model.
    """
    if options.seed < 0:
        raise ValueError("seed must be non-negative")
    if options.sample_interval_s <= 0:
        raise ValueError("sample_interval_s must be positive")
    if options.max_batch < 1:
        raise ValueError("max_batch must be at least 1")
    if not 0 <= options.cache_mb < float("inf"):
        raise ValueError("cache_mb must be non-negative and finite")
    cost_model = options.cost_model
    if isinstance(cost_model, QueryCostModel):
        gather_splits = cost_model.supports_gather_splits
    else:
        gather_splits = resolve_cost_model_name(cost_model) != HomogeneousCostModel.name
    if options.cache_mb > 0 and not gather_splits:
        raise ValueError(
            "the embedding cache needs per-query gather splits; "
            "use the skewed cost model (--cost-model skewed)"
        )
    resolve_fault_spec(options.faults)
    if not is_off(options.drift):
        if isinstance(options.drift, str):
            parse_drift_spec(options.drift)
        if not gather_splits:
            raise ValueError(
                "access-skew drift needs per-query gather sampling; "
                "use the skewed cost model (--cost-model skewed)"
            )
    make_replan_policy(options.replan)
    make_slo_policy(options.slo)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a multi-tenant cluster simulation.

    A tenant is one deployment plan served under its own traffic pattern with
    its own routing policy, SLA target, autoscaler and random seed.  All
    tenants share the engine's node pool, so their replicas compete for
    placement; ``max_replicas`` is the tenant's replica budget (the cap each
    of its deployments may scale to).  Every tenant option is validated here
    and nowhere else: :class:`MultiTenantEngine` and :class:`ServingEngine`
    both build their tenants from a spec, and the options a sweep shares go
    through the same :func:`check_run_options`.
    """

    name: str
    plan: DeploymentPlan
    #: The tenant's traffic.  ``None`` only inside :class:`ServingEngine`,
    #: which takes the pattern per :meth:`~ServingEngine.run`.
    pattern: TrafficPattern | None = None
    routing: str | RoutingPolicy = "least-work"
    seed: int = 0
    autoscale: bool = True
    sla_s: float | None = None
    sample_interval_s: float = 15.0
    initial_replicas: int | None = None
    max_replicas: int = 256
    cost_model: str | QueryCostModel = "homogeneous"
    max_batch: int = 1
    batch_window_s: float = 0.0
    faults: str | FaultModel | None = None
    #: Per-replica embedding-cache budget in MB (0.0 disables the tier;
    #: requires a cost model exposing gather splits, i.e. ``skewed``).
    cache_mb: float = 0.0
    #: Access-skew drift spec (``None``/``"none"`` for a static distribution;
    #: requires the skewed cost model).  Grammar: :mod:`repro.serving.spec`.
    drift: str | object | None = None
    #: Re-plan trigger spec (``None``/``"none"`` keeps the initial plan).
    #: Grammar: :mod:`repro.serving.spec`.
    replan: str | ReplanPolicy | None = None
    #: SLO watchdog spec (``None``/``"none"`` keeps the control plane off).
    #: Grammar: :mod:`repro.serving.spec`.
    slo: str | SloPolicy | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tenant needs a name")
        if self.sla_s is not None and self.sla_s <= 0:
            raise ValueError("sla_s must be positive")
        if self.max_replicas <= 0:
            raise ValueError("max_replicas must be positive")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")
        if isinstance(self.routing, str):
            resolve_routing_names([self.routing])
        check_run_options(self)
        if not is_off(self.replan) and (
            self.plan.strategy != "elasticrec" or self.plan.sharding is None
        ):
            raise ValueError(
                "online re-planning needs an elasticrec plan with a "
                "sharding layout to re-partition (strategy 'elasticrec')"
            )


def _tenant_patterns(tenants: Sequence[TenantSpec]) -> list[TrafficPattern]:
    """Every tenant's traffic pattern; a tenant without one is an error."""
    for tenant in tenants:
        if tenant.pattern is None:
            raise ValueError(f"tenant {tenant.name!r} has no traffic pattern")
    return [tenant.pattern for tenant in tenants]


@dataclass
class ClusterSeries:
    """Cluster-wide time series sampled over a multi-tenant run."""

    sample_times: np.ndarray
    memory_gb: np.ndarray
    memory_utilization: np.ndarray
    pending_placements: np.ndarray
    nodes_in_use: np.ndarray

    @property
    def peak_memory_gb(self) -> float:
        """Highest allocated memory across all tenants."""
        return float(self.memory_gb.max()) if self.memory_gb.size else 0.0

    @property
    def peak_pending_placements(self) -> int:
        """Deepest pending-placement queue observed."""
        return int(self.pending_placements.max()) if self.pending_placements.size else 0

    @property
    def mean_memory_utilization(self) -> float:
        """Average fraction of pool memory allocated over the run."""
        return float(self.memory_utilization.mean()) if self.memory_utilization.size else 0.0

    def summary(self) -> dict[str, float]:
        """Headline cluster-wide aggregates."""
        return {
            "peak_memory_gb": self.peak_memory_gb,
            "mean_memory_utilization": self.mean_memory_utilization,
            "peak_pending_placements": float(self.peak_pending_placements),
            "peak_nodes_in_use": float(self.nodes_in_use.max()) if self.nodes_in_use.size else 0.0,
        }


@dataclass
class MultiTenantResult:
    """Per-tenant results plus cluster-wide series of one multi-tenant run."""

    tenants: dict[str, SimulationResult]
    cluster_series: ClusterSeries
    #: Populated by :func:`repro.serving.sharding.run_sharded`: worker count,
    #: shard membership, per-worker peak RSS and wall time.  ``None`` for a
    #: plain in-process run; excluded from equality (it is measurement, not
    #: simulation output).
    sharding_stats: dict | None = field(default=None, repr=False, compare=False)

    def tenant(self, name: str) -> SimulationResult:
        """One tenant's result by name."""
        try:
            return self.tenants[name]
        except KeyError:
            raise KeyError(f"no tenant named {name!r}") from None

    @property
    def total_queries(self) -> int:
        """Queries served across every tenant."""
        return sum(r.tracker.num_samples for r in self.tenants.values())

    def summary(self) -> dict[str, dict]:
        """Cluster aggregates plus each tenant's headline aggregates."""
        cluster = self.cluster_series.summary()
        cluster["total_queries"] = float(self.total_queries)
        return {
            "cluster": cluster,
            "tenants": {name: result.summary() for name, result in self.tenants.items()},
        }

    def sla_report(self) -> list[dict[str, object]]:
        """One row per tenant: SLA target, violations and headline latency."""
        rows = []
        for name, result in self.tenants.items():
            rows.append(
                {
                    "tenant": name,
                    "routing": result.routing,
                    "sla_ms": result.sla_s * 1000.0,
                    "queries": result.tracker.num_samples,
                    "p95_latency_ms": result.overall_p95_latency_ms,
                    "sla_violations": result.sla_violation_count(),
                    "sla_violation_fraction": result.sla_violation_fraction(),
                }
            )
        return rows

    def worst_tenant(self) -> str:
        """The tenant with the highest SLA-violation fraction."""
        return max(self.tenants, key=lambda name: self.tenants[name].sla_violation_fraction())


class _ClusterProbe:
    """Samples cluster-wide metrics at tenant sample points (dedup by time)."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self._points: dict[float, tuple[float, float, int, int]] = {}

    def __call__(self, now: float) -> None:
        # At a given timestamp every reconcile precedes every sample and
        # sampling never mutates the cluster, so the first snapshot stands.
        if now in self._points:
            return
        self._points[now] = (
            self._cluster.allocated_memory_gb,
            self._cluster.memory_utilization(),
            self._cluster.pending_placement_count,
            self._cluster.nodes_in_use(),
        )

    def series(self) -> ClusterSeries:
        times = sorted(self._points)
        values = [self._points[t] for t in times]
        return ClusterSeries(
            sample_times=np.asarray(times),
            memory_gb=np.asarray([v[0] for v in values]),
            memory_utilization=np.asarray([v[1] for v in values]),
            pending_placements=np.asarray([v[2] for v in values], dtype=np.int64),
            nodes_in_use=np.asarray([v[3] for v in values], dtype=np.int64),
        )


class MultiTenantEngine:
    """N tenants competing for one shared, capacity-constrained node pool.

    Each :class:`TenantSpec` brings its own deployment plan, traffic pattern,
    routing policy, SLA target, autoscaler and seed; the engine hosts every
    tenant's deployments (namespaced ``<tenant>/<shard>`` when there is more
    than one tenant) on a single
    :class:`~repro.cluster.cluster.Cluster` whose node pool is fixed by
    ``cluster_spec``.  One event heap drives all tenants, so arrivals,
    autoscaler ticks and reconciles from different tenants interleave in
    timestamp order and replicas compete for placement through the shared
    bin-packing scheduler — replicas that do not fit queue as pending
    placements (visible in :class:`ClusterSeries`).

    :class:`ServingEngine` is this engine with one tenant, so a one-tenant
    fleet and a single-plan run are the same simulation by construction.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        cluster_spec: ClusterSpec | None = None,
        namespace: bool | None = None,
        stream: StreamConfig | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("at least one tenant is required")
        names = [t.name for t in tenants]
        if len(names) != len(set(names)):
            raise ValueError("tenant names must be unique")
        spec = cluster_spec if cluster_spec is not None else tenants[0].plan.cluster
        self._cluster = Cluster(spec)
        self._specs = list(tenants)
        self._runtimes: list[_TenantRuntime] = []
        # Deployment names are namespaced ``<tenant>/<shard>`` whenever more
        # than one tenant shares the pool.  A sharded worker must override
        # this: it may hold a single tenant of a run that *is* multi-tenant,
        # and bit-exactness requires the serial run's deployment names.
        if namespace is None:
            namespace = len(self._specs) > 1
        if stream is not None:
            claim_spool(stream.directory)
        self._stream = stream
        self._ran = False
        for index, tenant in enumerate(self._specs):
            deployments = self._cluster.add_plan(
                tenant.plan,
                prefix=tenant.name if namespace else None,
                initial_replicas=tenant.initial_replicas,
                max_replicas=tenant.max_replicas,
            )
            tenant_stream = (
                StreamConfig(
                    directory=stream.directory / f"tenant-{index:03d}",
                    spill_threshold=stream.spill_threshold,
                    flush_series_every=stream.flush_series_every,
                )
                if stream is not None
                else None
            )
            self._runtimes.append(_TenantRuntime(tenant, deployments, tenant_stream))
        self._cluster.reconcile(0.0)
        # Runs start warm: every container placed at time 0 is ready then.
        for deployment in self._cluster.deployments:
            for container in deployment.replicas:
                if container.state is ContainerState.STARTING:
                    container.ready_at = 0.0
                    container.maybe_become_ready(0.0)
        for runtime in self._runtimes:
            runtime.sync_servers(0.0)

    @property
    def cluster(self) -> Cluster:
        """The shared simulated cluster."""
        return self._cluster

    @property
    def tenant_names(self) -> list[str]:
        """Tenant names, in registration order."""
        return [t.name for t in self._specs]

    def _claim_run(self) -> None:
        # Queues, RNG streams, autoscaler history and metric series carry on
        # from where a run left them, so a rerun would not be a fresh one.
        if self._ran:
            raise RuntimeError("an engine runs once; build a new one")
        self._ran = True

    def run(
        self, on_event: Callable[[float, int], None] | None = None
    ) -> MultiTenantResult | None:
        """Drive every tenant's traffic pattern through the shared event heap.

        In streamed mode the results live in the spool (each tenant's runtime
        flushed them as the run progressed, and the cluster series and shard
        manifest are written here) and ``None`` returns;
        :func:`repro.serving.sharding.merge_stream` turns the spool back into
        a :class:`MultiTenantResult`.
        """
        self._claim_run()
        probe = _ClusterProbe(self._cluster)
        results = _drive(
            self._cluster,
            self._runtimes,
            _tenant_patterns(self._specs),
            probe=probe,
            on_event=on_event,
        )
        if self._stream is None:
            return MultiTenantResult(
                tenants={result.tenant: result for result in results},
                cluster_series=probe.series(),
            )
        series = probe.series()
        writer = SpoolWriter(self._stream.directory)
        writer.append(
            "cluster",
            sample_times=series.sample_times,
            memory_gb=series.memory_gb,
            memory_utilization=series.memory_utilization,
            pending_placements=series.pending_placements,
            nodes_in_use=series.nodes_in_use,
        )
        writer.write_meta(
            {
                "schema": 1,
                "status": "complete",
                "tenants": self.tenant_names,
                "tenant_dirs": [
                    f"tenant-{index:03d}" for index in range(len(self._specs))
                ],
                "capacity_gb": self._cluster.memory_capacity_gb,
            }
        )
        return None


class ServingEngine(MultiTenantEngine):
    """One deployment plan under query traffic: a one-tenant fleet.

    ``options`` are :class:`TenantSpec` fields (``routing``, ``seed``,
    ``cost_model``, ``faults``, ...), validated there; the tenant is named
    after the plan, and its traffic pattern comes with :meth:`run`.
    """

    def __init__(self, plan: DeploymentPlan, **options) -> None:
        super().__init__([TenantSpec(name=plan.name, plan=plan, **options)])

    def run(
        self,
        pattern: TrafficPattern,
        on_event: Callable[[float, int], None] | None = None,
    ) -> SimulationResult:
        """Simulate the plan under the given traffic pattern.

        ``on_event``, if given, observes every popped heap event as
        ``on_event(now, kind)`` (used by invariant tests).
        """
        self._claim_run()
        return _drive(self._cluster, self._runtimes, [pattern], on_event=on_event)[0]
