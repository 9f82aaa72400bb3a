"""Pluggable per-deployment routing policies for the serving engine.

Each policy answers one question: given the replica servers of a deployment
and the current simulation time, which replica should serve the next query?
Policies are stateful (round-robin cursors, in-flight completion times,
private RNG) and are reset by the engine at the start of every run, so one
policy instance can be reused across runs deterministically.

Policies receive an optional *cost hint* — the query's mean service seconds
on the deployment plus its sampled cost multiplier — so cost-aware policies
can weigh expensive queries differently from cheap ones.  Policies that do
not care simply ignore the hint.

Available policies (see :data:`ROUTING_POLICIES`):

``least-work``
    Route to the replica whose queue drains first, preferring ready replicas
    but falling back to still-starting ones when nothing is ready.  This is
    the historical simulator behaviour and the default.
``round-robin``
    Cycle through the ready replicas (falling back to all replicas).
``power-of-two``
    Sample two random replicas and keep the one with less pending work.
``ready-only``
    Strict variant of least-work that refuses to queue on replicas that have
    not finished starting; with no ready replica the query is dropped and
    counted as a full SLA violation.
``least-outstanding``
    Route to the replica with the fewest in-flight queries (attempts whose
    submitted completion time is still ahead), breaking ties by pending work.
``cost-weighted``
    Batch- and cost-aware least-work: route to the replica with the earliest
    *predicted completion* for this specific query, using the cost hint and
    each replica's forming batch (a replica with a joinable batch finishes an
    extra query earlier than its queue-drain time suggests).
``recovery-aware``
    Least-work with a cold-replica penalty: a replica that (re)joined the
    pool within the warm-up window looks ``warmup`` seconds busier than its
    queue says, so traffic shifts back onto recently-recovered replicas
    gradually instead of stampeding them while their caches are cold.

Every policy excludes dead and draining replicas: a replica killed or
cordoned by the fault layer (:mod:`repro.serving.faults`) never receives new
traffic, even when the selection happens in the same event-loop step as the
failure.

Selection runs over a :class:`ReplicaPool`: per-deployment numpy state
arrays (queue-drain times, readiness, availability mask) kept in sync by the
engine with dirty-flag invalidation, so the hot policies pick replicas via an
``argmin`` over arrays instead of a Python loop.  Ties resolve to the first
replica in creation order.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.serving.replica_server import CacheSpec, ReplicaServer

__all__ = [
    "ReplicaPool",
    "RoutingPolicy",
    "LeastWorkPolicy",
    "RoundRobinPolicy",
    "PowerOfTwoPolicy",
    "ReadyOnlyPolicy",
    "LeastOutstandingPolicy",
    "CostWeightedPolicy",
    "RecoveryAwarePolicy",
    "ROUTING_POLICIES",
    "make_routing_policy",
    "routing_policy_names",
    "resolve_routing_names",
]


def _queue_drain_time(server: ReplicaServer) -> float:
    """When a query submitted now would start service on ``server``."""
    return max(server.busy_until, server.ready_at)


class ReplicaPool:
    """Vectorized routing state of one deployment's replica servers.

    The pool mirrors a deployment's ``name -> ReplicaServer`` dict (insertion
    order, i.e. replica creation order) into parallel numpy arrays so routing
    policies can rank every replica with one array expression:

    * ``busy`` — each replica's queue-drain time.  ``ReplicaServer``
      guarantees ``busy_until >= ready_at`` from construction onward, so this
      single array *is* the least-work key ``max(busy_until, ready_at)``;
    * ``ready`` — each replica's ``ready_at``;
    * ``blocked`` — replicas that are failed or draining (never routable).

    The arrays are rebuilt lazily: the engine calls :meth:`invalidate` on any
    membership or flag change (reconcile adds/removes, crashes, drains) and
    writes ``busy[index]`` after every accepted query, so between changes a
    selection costs one argmin rather than a Python pass over the servers.

    ``refresh`` also caches two fast-path facts: whether any replica is
    blocked, and the latest ``ready_at`` — once ``now`` passes it on an
    unblocked pool, every replica is routable and policies skip the masking
    entirely.

    On a cached lane the pool also holds each replica's embedding-cache fill
    and prices queries against it (:meth:`cached_price`).
    """

    __slots__ = (
        "_source",
        "_dirty",
        "servers",
        "busy",
        "ready",
        "blocked",
        "size",
        "index_of",
        "has_blocked",
        "ready_threshold",
        "single_batch",
        "has_caches",
        "fill_rows",
        "cache_capacity",
        "cache_inv_capacity",
        "cache_geometry",
        "cache_warm",
    )

    def __init__(
        self, source: dict[str, ReplicaServer], cache_spec: CacheSpec | None = None
    ) -> None:
        self._source = source
        self.servers: list[ReplicaServer] = []
        self.busy = np.empty(0, dtype=np.float64)
        self.ready = np.empty(0, dtype=np.float64)
        self.blocked = np.empty(0, dtype=bool)
        self.size = 0
        self.index_of: dict[str, int] = {}
        self.has_blocked = False
        self.ready_threshold = 0.0
        self.single_batch = True
        # Embedding-cache state of a cached lane, the only copy of it: one
        # resident-row count per replica (``fill_rows`` stays ``None`` on
        # cache-less pools), plus the tenant's shared spec's capacity and its
        # cached reciprocal.  ``has_caches`` also routes the recovery-aware
        # cold penalty off actual fill instead of the time-window fast path.
        self.has_caches = cache_spec is not None
        self.fill_rows: list[float] | None = None
        self.cache_capacity = float(cache_spec.capacity_eff) if cache_spec else 0.0
        self.cache_inv_capacity = cache_spec.inv_capacity_eff if cache_spec else 0.0
        # The spec's fill grid flattened into one tuple that ``cached_price``
        # unpacks into locals; the adjacent-point differences are hoisted out
        # of the per-query lerp (the same IEEE subtraction
        # ``CacheSpec.hit_fractions`` performs).
        self.cache_geometry: tuple | None = None
        if cache_spec is not None:
            grid_hot = cache_spec.grid_hot
            grid_cold = cache_spec.grid_cold
            self.cache_geometry = (
                cache_spec.step,
                grid_hot,
                grid_cold,
                [b - a for a, b in zip(grid_hot, grid_hot[1:])],
                [b - a for a, b in zip(grid_cold, grid_cold[1:])],
                len(grid_hot) - 1,
                grid_hot[-1],
                grid_cold[-1],
                cache_spec.hit_cost_fraction,
                1.0 - cache_spec.hit_cost_fraction,
            )
        # True only while *every* fill is pinned at the capacity.  Fills are
        # monotonic between invalidations (admission only adds rows), so once
        # set the flag stays valid until ``reset_fills`` or a membership
        # change; the engine's cached hot path uses it to skip the per-query
        # fill read entirely in the steady state.
        self.cache_warm = False
        self._dirty = True

    def invalidate(self) -> None:
        """Mark the arrays stale (membership or failed/draining flag change)."""
        self._dirty = True

    def refresh(self) -> "ReplicaPool":
        """Rebuild the arrays from the source dict if they are stale."""
        if self._dirty:
            self._rebuild()
        return self

    def _rebuild(self) -> None:
        servers = list(self._source.values())
        self.servers = servers
        size = len(servers)
        self.size = size
        busy = np.empty(size, dtype=np.float64)
        ready = np.empty(size, dtype=np.float64)
        blocked = np.empty(size, dtype=bool)
        single_batch = True
        model = None
        for index, server in enumerate(servers):
            busy[index] = server.busy_until
            ready[index] = server.ready_at
            blocked[index] = server.failed or server.draining
            if server.max_batch != 1:
                single_batch = False
            if index == 0:
                model = server.batch_model
            elif server.batch_model is not model:
                single_batch = False
        self.busy = busy
        self.ready = ready
        self.blocked = blocked
        previous = self.index_of
        self.index_of = {server.name: index for index, server in enumerate(servers)}
        self.has_blocked = bool(blocked.any())
        if size and not self.has_blocked:
            self.ready_threshold = float(ready.max())
        else:
            self.ready_threshold = np.inf
        # Cost-weighted routing vectorizes only the uniform single-query-batch
        # configuration (every replica max_batch == 1, one shared model): the
        # unit-batch service time is then one shared scalar.
        self.single_batch = single_batch
        if self.has_caches:
            # Fills follow replicas by name: a survivor keeps its fill, and a
            # new replica (crash or drain replacement, scale-out) starts cold.
            # Container names are never reused, so a departed replica's fill
            # is simply dropped.  A plain Python list, not a numpy array: the
            # engine's cached hot path reads and writes one scalar fill per
            # query, and float list indexing is several times cheaper than
            # numpy scalar boxing (the recovery-aware policy converts with
            # ``np.asarray`` at its call site).
            old = self.fill_rows
            fills = [
                old[previous[server.name]] if server.name in previous else 0.0
                for server in servers
            ]
            self.fill_rows = fills
            self.cache_warm = bool(size and min(fills) >= self.cache_capacity)
        self._dirty = False

    def reset_fills(self) -> None:
        """Drop every fill to zero (cache invalidation)."""
        if self.fill_rows is not None:
            self.fill_rows = [0.0] * self.size
            self.cache_warm = False

    def cached_price(
        self, index: int, cost: float, hot: float, cold: float, total: float
    ) -> tuple[float, float]:
        """Price one query's gathers on replica ``index``'s cache; admit its misses.

        ``hot``/``cold``/``total`` are the query's gather split and ``cost``
        its cost multiplier.  Returns ``(multiplier, hits)``: the multiplier
        after the cache serves a fill-dependent fraction of the gathers at
        the hit cost, and the expected gathers it served.  A cold cache hits
        nothing and admits everything; a replica pinned at capacity (or a
        pool whose every replica is) takes the fill-independent grid-end
        price and writes nothing.  The one place cached pricing happens,
        bit-exact with the test reference ``ReplicaCache.serve``
        (``tests/serving/oracle.py``) followed by
        ``cache_adjusted_multiplier``.
        """
        if not total > 0.0:
            return cost, 0.0
        (
            step,
            grid_hot,
            grid_cold,
            grid_dhot,
            grid_dcold,
            grid_last,
            hot_end,
            cold_end,
            hit_cost,
            miss_scale,
        ) = self.cache_geometry
        fills = self.fill_rows
        capacity = self.cache_capacity
        if self.cache_warm or fills[index] >= capacity:
            # A replica pinned at capacity: the grid-end fractions, with the
            # lerp branch's IEEE ops, and no admission.
            hit_rate = (hot * hot_end + cold * cold_end) / total
        else:
            fill = fills[index]
            if fill <= 0.0:
                hit_rate = 0.0
                fill = fill + total
            else:
                position = fill / step
                grid_index = int(position)
                if grid_index >= grid_last:
                    f_hot = hot_end
                    f_cold = cold_end
                else:
                    frac = position - grid_index
                    f_hot = grid_hot[grid_index] + frac * grid_dhot[grid_index]
                    f_cold = grid_cold[grid_index] + frac * grid_dcold[grid_index]
                hits = hot * f_hot + cold * f_cold
                hit_rate = hits / total
                fill = fill + (total - hits)
            if fill >= capacity:
                # Admission clamps at capacity; the pool's last cold replica
                # pinning there makes the whole pool warm.
                fills[index] = capacity
                if min(fills) >= capacity:
                    self.cache_warm = True
            else:
                fills[index] = fill
        if not hit_rate > 0.0:
            return cost, 0.0
        if hit_rate == 1.0:
            # IEEE-exact warm-cache contract: exactly hit_cost_fraction * cost.
            return cost * hit_cost, hit_rate * total
        return cost * (1.0 - hit_rate * miss_scale), hit_rate * total

    def all_ready(self, now: float) -> bool:
        """Fast-path test: every replica routable and past its ready time."""
        return now >= self.ready_threshold

    def routable_mask(self, now: float) -> np.ndarray | None:
        """Boolean mask of the routable replicas.

        Available replicas (ready, neither failed nor draining) first; if
        none, live-but-starting replicas; ``None`` when nothing is routable
        (the query must be rejected).
        """
        ready_now = self.ready <= now
        if self.has_blocked:
            live = ~self.blocked
            available = ready_now & live
        else:
            live = None
            available = ready_now
        if available.any():
            return available
        if live is None:
            # Nothing blocked, nothing ready: every replica is still starting.
            return np.ones(self.size, dtype=bool) if self.size else None
        if live.any():
            return live
        return None


def _masked_argmin(keys: np.ndarray, mask: np.ndarray) -> int:
    """Index of the first minimal key among the masked entries."""
    return int(np.where(mask, keys, np.inf).argmin())


class RoutingPolicy:
    """Base class for per-deployment replica selection."""

    #: Registry name of the policy.
    name: str = ""

    def reset(self, rng: np.random.Generator) -> None:
        """Clear per-run state; called by the engine before each run."""

    def select_index(
        self,
        deployment_name: str,
        pool: ReplicaPool,
        now: float,
        cost: tuple[float, float] | None = None,
    ) -> int | None:
        """Pick the serving replica's pool index, or ``None`` to drop the query.

        ``cost``, when given, is the query's cost hint: ``(service_s,
        multiplier)`` — the deployment's mean per-query service seconds and
        this query's sampled cost multiplier.  Policies may ignore it.
        """
        raise NotImplementedError

    def on_submit(self, deployment_name: str, server: ReplicaServer, completion: float) -> None:
        """Notification that work submitted to ``server`` completes at ``completion``.

        ``completion`` is what ``server.submit`` returned: a query attempt,
        or a re-plan's shard copy.
        """

    def least_work_ranking(self, pool: ReplicaPool) -> tuple[float, float] | None:
        """How this policy ranks ``pool``, for the engine's drain kernel.

        ``(warmup_s, cold_penalty_queries)`` when ``select_index`` is
        least-work with a fading cold penalty: a replica joins the ranking
        once an arrival reaches its ``ready_at`` (every replica ranks while
        none is ready), and ranks at its queue-drain time plus
        ``cold_penalty_queries * (service_s * multiplier)`` times the
        fraction of its warm-up window ``[ready_at, ready_at + warmup_s)``
        still ahead; ties go to the lowest index.  A zero penalty is plain
        least-work.  The kernel then serves a lane's arrivals with the
        least-work recursion instead of one ``select_index`` call each.
        Called on a refreshed, unblocked pool, and valid until its next
        membership or fill-state change.  ``None`` means this policy ranks
        the pool some other way; a subclass that changes the ranking must
        override this as well.
        """
        return None


class LeastWorkPolicy(RoutingPolicy):
    """Route to the replica whose queue drains first (the seed behaviour)."""

    name = "least-work"

    def least_work_ranking(self, pool: ReplicaPool) -> tuple[float, float] | None:
        return (0.0, 0.0)

    def select_index(
        self,
        deployment_name: str,
        pool: ReplicaPool,
        now: float,
        cost: tuple[float, float] | None = None,
    ) -> int | None:
        # The engine's default policy: one call per query per deployment
        # outside the drain kernel, so refresh() and all_ready() are
        # inlined (identical logic, two fewer method calls per call).
        if pool._dirty:
            pool._rebuild()
        if not pool.size:
            return None
        if now >= pool.ready_threshold:
            return int(pool.busy.argmin())
        # Masked path, fused: one np.where + argmin instead of building the
        # routable mask, reducing it with any(), and masking again.  A finite
        # key at the winner proves some replica was routable; the chosen
        # index is identical to ``_masked_argmin(busy, routable_mask(now))``
        # because both pick the first minimal finite key in pool order.
        available = pool.ready <= now
        if pool.has_blocked:
            available &= ~pool.blocked
        keys = np.where(available, pool.busy, np.inf)
        best = int(keys.argmin())
        if keys[best] != np.inf:
            return best
        mask = pool.routable_mask(now)
        if mask is None:
            return None
        return _masked_argmin(pool.busy, mask)


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through ready replicas regardless of their load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursors: dict[str, int] = {}

    def reset(self, rng: np.random.Generator) -> None:
        self._cursors.clear()

    def select_index(
        self,
        deployment_name: str,
        pool: ReplicaPool,
        now: float,
        cost: tuple[float, float] | None = None,
    ) -> int | None:
        pool.refresh()
        if not pool.size:
            return None
        candidates = None
        size = pool.size
        if not pool.all_ready(now):
            mask = pool.routable_mask(now)
            if mask is None:
                return None
            candidates = np.flatnonzero(mask)
            size = candidates.size
        cursor = self._cursors.get(deployment_name, 0) % size
        self._cursors[deployment_name] = cursor + 1
        return cursor if candidates is None else int(candidates[cursor])


class PowerOfTwoPolicy(RoutingPolicy):
    """Sample two random replicas, keep the one with less pending work."""

    name = "power-of-two"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._rng = rng or np.random.default_rng()

    def reset(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def select_index(
        self,
        deployment_name: str,
        pool: ReplicaPool,
        now: float,
        cost: tuple[float, float] | None = None,
    ) -> int | None:
        pool.refresh()
        if not pool.size:
            return None
        busy = pool.busy
        if pool.all_ready(now):
            if pool.size == 1:
                return 0
            first, second = self._rng.choice(pool.size, size=2, replace=False)
            return int(first) if busy[first] <= busy[second] else int(second)
        mask = pool.routable_mask(now)
        if mask is None:
            return None
        candidates = np.flatnonzero(mask)
        if candidates.size == 1:
            return int(candidates[0])
        first, second = self._rng.choice(candidates.size, size=2, replace=False)
        a, b = int(candidates[first]), int(candidates[second])
        return a if busy[a] <= busy[b] else b


class ReadyOnlyPolicy(RoutingPolicy):
    """Least-work over ready replicas only; drop if nothing is ready."""

    name = "ready-only"

    def select_index(
        self,
        deployment_name: str,
        pool: ReplicaPool,
        now: float,
        cost: tuple[float, float] | None = None,
    ) -> int | None:
        pool.refresh()
        if not pool.size:
            return None
        if pool.all_ready(now):
            return int(pool.busy.argmin())
        available = pool.ready <= now
        if pool.has_blocked:
            available &= ~pool.blocked
        if not available.any():
            return None
        return _masked_argmin(pool.busy, available)


class LeastOutstandingPolicy(RoutingPolicy):
    """Route to the replica with the fewest in-flight queries.

    A replica's in-flight attempts are those whose completion, as its
    ``submit`` returned it, is still after ``now``: each ``on_submit``
    pushes that time onto a per-replica min-heap, and selection pops the
    ones at or before ``now``.  Replica names are never reused, so a rebuilt
    replica starts with an empty heap.  Ties break toward less pending
    work, then toward the replica listed first (deterministic given the
    engine's stable server ordering).
    """

    name = "least-outstanding"

    def __init__(self) -> None:
        self._in_flight: dict[tuple[str, str], list[float]] = {}

    def reset(self, rng: np.random.Generator) -> None:
        self._in_flight.clear()

    def select_index(
        self,
        deployment_name: str,
        pool: ReplicaPool,
        now: float,
        cost: tuple[float, float] | None = None,
    ) -> int | None:
        # Candidates are the routable replicas (available ones, else live
        # but still-starting ones); the key is (in-flight count, queue-drain
        # time) and ``min`` keeps the lowest pool index on ties.
        pool.refresh()
        if pool.all_ready(now):
            candidates = range(pool.size)
        else:
            mask = pool.routable_mask(now)
            if mask is None:
                return None
            candidates = np.flatnonzero(mask).tolist()
        in_flight = self._in_flight
        servers = pool.servers
        busy = pool.busy

        def load(i: int) -> tuple[int, float]:
            completions = in_flight.get((deployment_name, servers[i].name), ())
            while completions and completions[0] <= now:
                heapq.heappop(completions)
            return len(completions), busy[i]

        return min(candidates, key=load)

    def on_submit(self, deployment_name: str, server: ReplicaServer, completion: float) -> None:
        heapq.heappush(
            self._in_flight.setdefault((deployment_name, server.name), []), completion
        )


class CostWeightedPolicy(RoutingPolicy):
    """Route to the replica with the earliest predicted completion.

    Unlike least-work — which orders replicas by queue-drain time regardless
    of what is being routed — this policy asks every ready replica what *this
    query* would cost there, via
    :meth:`~repro.serving.replica_server.ReplicaServer.predicted_completion`:
    the prediction folds in the query's cost hint and the replica's forming
    batch, so a cheap query prefers a replica it can batch into while an
    expensive one prefers the emptiest queue.  Without a cost hint it
    degenerates to least-work ordering.  Ties resolve to the replica listed
    first (deterministic given the engine's stable server ordering).
    """

    name = "cost-weighted"

    def select_index(
        self,
        deployment_name: str,
        pool: ReplicaPool,
        now: float,
        cost: tuple[float, float] | None = None,
    ) -> int | None:
        pool.refresh()
        if not pool.size:
            return None
        if cost is None or not pool.single_batch:
            # Batch-forming replicas need the per-server prediction (batch
            # join state is replica-local); fall back to the scalar ranking
            # over the routable subset.
            mask = pool.routable_mask(now)
            if mask is None:
                return None
            servers = pool.servers
            candidates = np.flatnonzero(mask)
            if cost is None:
                key = _queue_drain_time
            else:
                service_s, multiplier = cost

                def key(server: ReplicaServer) -> float:
                    return server.predicted_completion(now, service_s, multiplier)

            return int(min((int(i) for i in candidates), key=lambda i: key(servers[i])))
        # Uniform single-query batches: the prediction decomposes into
        # max(arrival, busy_until) plus one shared unit-batch service time,
        # so the whole pool ranks with one array expression.
        service_s, multiplier = cost
        unit = pool.servers[0].unit_service(service_s, multiplier)
        keys = np.maximum(pool.busy, now) + unit
        if pool.all_ready(now):
            return int(keys.argmin())
        mask = pool.routable_mask(now)
        if mask is None:
            return None
        return _masked_argmin(keys, mask)


class RecoveryAwarePolicy(RoutingPolicy):
    """Least-work with a penalty on recently-recovered cold replicas.

    A replica that just (re)joined the pool — the replacement for a crashed
    replica, a re-placed drain victim, or a fresh scale-up — starts with cold
    caches, so stampeding the whole backlog onto it the moment it turns ready
    re-creates the very tail spike the recovery was meant to end.  This
    policy makes a cold replica look a few *queries* busier than its queue
    says: the penalty is ``cold_penalty_queries`` service times, scaled by
    the fraction of the warm-up window still remaining, using the engine's
    cost hint for the service time.  The penalty therefore fades linearly
    over ``warmup_s`` and is proportional to real work — a cold replica is
    deprioritised, not quarantined, so a long queue on the warm replicas
    still overflows onto it.  Replicas ready for longer than ``warmup_s``
    (and all replicas when no cost hint is supplied) rank exactly as under
    least-work; ties resolve to the replica listed first.

    When the engine's embedding-cache tier is on, the pool carries each
    replica's actual cache fill and the fixed wall-clock window is replaced
    by the real thing: the cold fraction is ``1 - fill_fraction`` of the
    replica's cache, so the penalty fades exactly as fast as the cache warms
    (and reappears in full if the cache is invalidated by a re-shard).
    Cache-less pools rank bit-identically to the historical time-window
    policy.
    """

    name = "recovery-aware"

    def __init__(self, warmup_s: float = 60.0, cold_penalty_queries: float = 4.0) -> None:
        if warmup_s <= 0:
            raise ValueError("warmup_s must be positive")
        if cold_penalty_queries < 0:
            raise ValueError("cold_penalty_queries must be non-negative")
        self.warmup_s = float(warmup_s)
        self.cold_penalty_queries = float(cold_penalty_queries)

    def least_work_ranking(self, pool: ReplicaPool) -> tuple[float, float] | None:
        # Cache-less pools penalise by the time window.  A cached pool's
        # penalty follows its fills instead; once every fill is pinned at
        # capacity (fills only grow until the next membership change or
        # reset) it is exactly zero.
        if pool.has_caches:
            return (0.0, 0.0) if pool.cache_warm else None
        return (self.warmup_s, self.cold_penalty_queries)

    def select_index(
        self,
        deployment_name: str,
        pool: ReplicaPool,
        now: float,
        cost: tuple[float, float] | None = None,
    ) -> int | None:
        pool.refresh()
        if not pool.size:
            return None
        if pool.has_caches:
            # Cache-fill-driven penalty: a cache can be cold at any wall-clock
            # time (fresh replacement, re-shard invalidation), so the warm
            # time-window fast path does not apply; the cold fractions come
            # from each replica's actual fill.
            service_s = cost[0] * cost[1] if cost is not None else 0.0
            # Elementwise ``1 - ReplicaCache.fill_fraction`` (the reference
            # in tests/serving/oracle.py), including its full-cache ==
            # exactly-1.0 special case.  The pool keeps its
            # fills as a Python list for the engine's per-query pricing;
            # this conversion stays off the default least-work route.
            fills = np.asarray(pool.fill_rows)
            remaining = 1.0 - np.where(
                fills >= pool.cache_capacity,
                1.0,
                fills * pool.cache_inv_capacity,
            )
            keys = pool.busy + (self.cold_penalty_queries * service_s) * remaining
            if pool.all_ready(now):
                return int(keys.argmin())
            mask = pool.routable_mask(now)
            if mask is None:
                return None
            return _masked_argmin(keys, mask)
        if pool.all_ready(now) and now >= pool.ready_threshold + self.warmup_s:
            # Every replica is warm: the penalty term is exactly zero and the
            # ranking degenerates to least-work.
            return int(pool.busy.argmin())
        service_s = cost[0] * cost[1] if cost is not None else 0.0
        remaining = np.maximum(0.0, (pool.ready + self.warmup_s) - now) / self.warmup_s
        keys = pool.busy + (self.cold_penalty_queries * service_s) * remaining
        if pool.all_ready(now):
            return int(keys.argmin())
        mask = pool.routable_mask(now)
        if mask is None:
            return None
        return _masked_argmin(keys, mask)


#: Registry of routing policies by CLI-facing name.
ROUTING_POLICIES: dict[str, type[RoutingPolicy]] = {
    policy.name: policy
    for policy in (
        LeastWorkPolicy,
        RoundRobinPolicy,
        PowerOfTwoPolicy,
        ReadyOnlyPolicy,
        LeastOutstandingPolicy,
        CostWeightedPolicy,
        RecoveryAwarePolicy,
    )
}


def routing_policy_names() -> list[str]:
    """Registered policy names, in registration order."""
    return list(ROUTING_POLICIES)


def resolve_routing_names(names: str | Sequence[str]) -> list[str]:
    """Normalise a routing-policy selection to a validated list of names.

    Accepts ``"all"``, a comma-separated string, or a sequence of names;
    raises :class:`ValueError` naming the offender and the valid choices.
    """
    if isinstance(names, str):
        names = (
            routing_policy_names() if names == "all" else [n.strip() for n in names.split(",")]
        )
    resolved = [name for name in names if name]
    if not resolved:
        raise ValueError("at least one routing policy name is required")
    for name in resolved:
        if name not in ROUTING_POLICIES:
            known = ", ".join(routing_policy_names())
            raise ValueError(f"unknown routing policy {name!r}; choose from {known}")
    return resolved


def make_routing_policy(policy: str | RoutingPolicy) -> RoutingPolicy:
    """Resolve a policy name (or pass through an instance)."""
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        return ROUTING_POLICIES[policy]()
    except KeyError:
        known = ", ".join(routing_policy_names())
        raise ValueError(f"unknown routing policy {policy!r}; choose from {known}") from None
