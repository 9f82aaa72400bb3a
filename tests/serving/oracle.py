"""An independent reference simulator for the serving engine's core.

A deliberately small, pure-Python model of what the engine computes on its
simplest configurations, written from the serving model itself rather than
from the engine's code (it imports nothing from ``repro.serving.engine``,
``routing`` or ``replica_server``):

* every deployment of the plan is a *lane* of fixed, warm replicas (no
  autoscaling, all ready at time 0), each replica a FIFO server that runs
  one query at a time;
* a query fans out to every lane; on each lane a routing rule picks one
  replica — ``least-work`` (the replica whose queue drains first, lowest
  index on ties) or ``round-robin`` (a per-lane cursor);
* a shard starts at ``max(arrival, replica free time)`` and runs for the
  lane's mean service time, scaled on embedding and monolithic lanes by the
  query's cost multiplier through the batch model's unit-batch slope
  ``1 + (1 - overhead) * (m - 1)`` (dense shards ignore the multiplier);
* the query completes when its slowest shard does, plus the RPC overhead
  of a disaggregated (ElasticRec) plan.

:func:`simulate` returns per-query completion times and latencies in
arrival order; the differential test in ``test_oracle.py`` holds the engine
to them exactly, float for float.

:class:`ReplicaCache` is the scalar reference of one replica's embedding
cache: given a deployment's ``CacheSpec`` (the hit-fraction curves), it
prices and admits one query's gathers at a time, the rule the engine's
pool-array cache pricing must reproduce.  :func:`degraded_gather_multiplier`
is the scalar reference of one query's price under watchdog quality
fallback, which the engine reads as ``multiplier * ratio`` from a per-query
column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.plan import ROLE_DENSE, DeploymentPlan
from repro.hardware.perf_model import PerfModel
from repro.serving.traffic import TrafficPattern
from repro.serving.workload import make_cost_model

if TYPE_CHECKING:
    from repro.serving.replica_server import CacheSpec

#: The routing rules the oracle models.
ROUTINGS = ("least-work", "round-robin")
#: The engine's default sample interval: arrivals after the last sample
#: boundary are never served.
SAMPLE_INTERVAL_S = 15.0


@dataclass(frozen=True)
class Lane:
    """One deployment as the oracle sees it."""

    replicas: int
    #: Mean per-query service seconds (``1 / per-replica QPS``).
    service_s: float
    #: Slope of the service-time scale in the cost multiplier; ``None`` for
    #: a dense lane, whose service time ignores the multiplier.
    slope: float | None

    def shard_seconds(self, multiplier: float) -> float:
        """Service seconds of one query's shard on this lane."""
        if self.slope is None:
            return self.service_s
        return self.service_s * (1.0 + self.slope * (multiplier - 1.0))


def plan_lanes(plan: DeploymentPlan, replicas: int | None = None) -> list[Lane]:
    """The plan's deployments as lanes, in plan order.

    ``replicas`` overrides every lane's replica count (the plan's own counts
    otherwise).
    """
    perf = PerfModel(plan.cluster)
    return [
        Lane(
            replicas=replicas if replicas is not None else shard.replicas,
            service_s=1.0 / shard.per_replica_qps,
            slope=(
                None
                if shard.role == ROLE_DENSE
                else 1.0 - perf.batch_model(shard.role).overhead_fraction
            ),
        )
        for shard in plan.deployments
    ]


def run(
    arrivals: list[float],
    multipliers: list[float],
    lanes: list[Lane],
    routing: str,
    overhead_s: float,
) -> tuple[list[float], list[float]]:
    """Per-query (completion time, latency) for a fixed fleet of FIFO lanes."""
    if routing not in ROUTINGS:
        raise ValueError(f"the oracle does not model routing {routing!r}")
    free_at = [[0.0] * lane.replicas for lane in lanes]
    served = 0
    completions: list[float] = []
    latencies: list[float] = []
    for arrival, multiplier in zip(arrivals, multipliers):
        slowest = -np.inf
        for lane, replicas in zip(lanes, free_at):
            if routing == "round-robin":
                index = served % len(replicas)
            else:
                index = min(range(len(replicas)), key=replicas.__getitem__)
            done = max(arrival, replicas[index]) + lane.shard_seconds(multiplier)
            replicas[index] = done
            slowest = max(slowest, done)
        served += 1
        latency = (slowest + overhead_s) - arrival
        completions.append(arrival + latency)
        latencies.append(latency)
    return completions, latencies


def simulate(
    plan: DeploymentPlan,
    pattern: TrafficPattern,
    seed: int,
    routing: str = "least-work",
    cost_model: str = "homogeneous",
    replicas: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Completion times and latencies of every served query, arrival order.

    Arrivals come from ``default_rng(seed)`` and cost multipliers from the
    dedicated ``[seed, 2]`` stream, as in the engine.  Queries arriving after
    the last sample boundary are never served, and only a disaggregated plan
    pays the RPC fan-out overhead.
    """
    arrivals = pattern.arrivals(np.random.default_rng(seed))
    boundaries = np.arange(
        SAMPLE_INTERVAL_S, pattern.duration_s + SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
    )
    served = int(np.searchsorted(arrivals, boundaries[-1], side="right"))
    model = make_cost_model(cost_model, plan.workload)
    if model.is_homogeneous:
        multipliers = [1.0] * arrivals.size
    else:
        multipliers = model.sample(arrivals.size, np.random.default_rng([seed, 2])).tolist()
    overhead_s = 0.0
    if plan.strategy == "elasticrec":
        overhead_s = PerfModel(plan.cluster).rpc_overhead_s()
    completions, latencies = run(
        arrivals[:served].tolist(),
        multipliers[:served],
        plan_lanes(plan, replicas),
        routing,
        overhead_s,
    )
    return np.asarray(completions), np.asarray(latencies)


def degraded_gather_multiplier(
    multiplier: float, hot: float, cold: float, hot_cost_fraction: float
) -> float:
    """Cache-hot-only price of a query under watchdog quality fallback.

    A degraded gather serves only the query's hot rows (cache-resident, at
    ``hot_cost_fraction`` per row) and skips the cold rows entirely, so the
    full-price ``multiplier`` scales by the hot share of the priced work:
    ``hot_cost_fraction * hot / (hot_cost_fraction * hot + cold)``.  A query
    with no hot work keeps its multiplier unchanged (nothing to shed down
    to).
    """
    hot_cost = hot_cost_fraction * hot
    if hot_cost <= 0.0:
        return multiplier
    return multiplier * (hot_cost / (hot_cost + cold))


class ReplicaCache:
    """Reference model of one replica's embedding cache (its resident rows).

    The engine keeps fills in ``ReplicaPool.fill_rows`` and prices them in
    ``ReplicaPool.cached_price``; ``test_cache.py`` checks it against this
    class query for query, and ``test_dispatch.py`` prices retries and
    requeues with it.  A fresh cache starts empty, so a crash-replacement or
    drain-evicted replica's replacement container restarts cold and earns
    its hit rate back one served query at a time.  Warm-up is *optimistic*
    in the insert-on-miss sense: every missed gather is assumed to admit a
    new row (duplicate misses across queries are not deduplicated), which
    slightly overestimates warm-up speed but keeps admission O(1) per query.
    """

    __slots__ = ("spec", "fill_rows")

    def __init__(self, spec: CacheSpec) -> None:
        self.spec = spec
        self.fill_rows = 0.0

    @property
    def fill_fraction(self) -> float:
        """Resident rows as a fraction of the effective capacity.

        Uses the spec's cached ``1/capacity_eff`` (a multiply, not a divide)
        with the full cache special-cased to exactly 1.0; the recovery-aware
        routing policy computes the identical expression over the pool's
        fill array.
        """
        fill = self.fill_rows
        spec = self.spec
        if fill >= spec.capacity_eff:
            return 1.0
        return fill * spec.inv_capacity_eff

    def hit_rate(self, hot_gathers: float, cold_gathers: float) -> float:
        """Expected fraction of a query's gathers served from the cache."""
        total = hot_gathers + cold_gathers
        if total <= 0.0:
            return 0.0
        f_hot, f_cold = self.spec.hit_fractions(self.fill_rows)
        return (hot_gathers * f_hot + cold_gathers * f_cold) / total

    def price(self, hot_gathers: float, cold_gathers: float) -> tuple[float, float]:
        """Pure pricing read: (hit rate, expected hit count), no admission.

        ``hits`` is returned alongside the rate because ``hit_rate * total``
        does not round back to ``hits`` in floating point — :meth:`admit`
        needs the exact hit count to reproduce :meth:`serve`'s fill update.
        """
        total = hot_gathers + cold_gathers
        if total <= 0.0:
            return 0.0, 0.0
        f_hot, f_cold = self.spec.hit_fractions(self.fill_rows)
        hits = hot_gathers * f_hot + cold_gathers * f_cold
        return hits / total, hits

    def admit(self, total_gathers: float, hits: float) -> None:
        """Admit one priced query's missed gathers, clamped at capacity.

        The single admission rule shared by the scalar reference and the
        pool-array path: fill grows by ``total - hits`` and saturates at the
        effective capacity.
        """
        fill = self.fill_rows + (total_gathers - hits)
        capacity = self.spec.capacity_eff
        self.fill_rows = capacity if fill > capacity else fill

    def serve(self, hot_gathers: float, cold_gathers: float) -> float:
        """Hit rate for one query's gathers; admits the missed rows."""
        total = hot_gathers + cold_gathers
        if total <= 0.0:
            return 0.0
        hit_rate, hits = self.price(hot_gathers, cold_gathers)
        self.admit(total, hits)
        return hit_rate

    def warm(self) -> None:
        """Fill to capacity instantly (asymptotic steady state, for tests)."""
        self.fill_rows = float(self.spec.capacity_eff)

    def invalidate(self) -> None:
        """Drop every resident row (re-sharding moves the rows elsewhere)."""
        self.fill_rows = 0.0
