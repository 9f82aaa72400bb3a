"""Per-replica batch-queue serving.

A replica is a FIFO queue that serves *batches*: queries that queue up behind
the same busy period coalesce into one batch of up to ``max_batch`` queries
(optionally held open for ``batch_window_s`` after the first arrival), and
the whole batch's service time comes from a
:class:`~repro.hardware.perf_model.BatchLatencyModel` — sub-linear in batch
size for dense shards, per-gathered-vector for embedding shards.

With the default ``max_batch=1`` every query is its own batch and
``factor(1, multiplier=1.0) == 1.0`` exactly, so the server reproduces the
historical single-query FIFO model bit-for-bit: a query submitted at
``arrival`` completes at ``max(arrival, busy_until, ready_at) +
service_time``.

The class sits on the serving engine's per-query hot path, so it is slotted,
``submit`` short-circuits the batch bookkeeping in the single-query-batch
configuration (and skips the latency model entirely for an average-cost
query, where the factor is exactly 1.0), and the merged busy runs are kept as
parallel start/end lists so windowed utilization lookups bisect into them
instead of scanning the whole history.  :func:`serve_least_work` serves a
whole run of queries on one lane of single-query replicas at once, starting
and warming replicas included, bit-exact with least-work (or
recovery-aware) routing plus ``submit`` per query, and
:func:`copy_least_work` hands its outcome to a twin lane whose inputs were
equal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappush, heapreplace
from itertools import islice
from math import inf
from typing import Callable, Sequence

from repro.data.distributions import AccessDistribution
from repro.hardware.perf_model import BatchLatencyModel

__all__ = [
    "CacheSpec",
    "ReplicaServer",
    "copy_least_work",
    "least_work_marks",
    "least_work_state",
    "serve_least_work",
]


class CacheSpec:
    """Sizing and geometry of one deployment's per-replica embedding cache.

    One spec is shared by every replica of a deployment; the per-replica
    fills live in :class:`~repro.serving.routing.ReplicaPool`, tested
    against the ``ReplicaCache`` reference in ``tests/serving/oracle.py``.
    The model is the conservative hot-prefix one the paper adopts from the
    caching literature (after Kwon et al., as in ``core/gpu_cache.py``): a
    cache holding ``p`` rows is approximated as holding the ``p`` *hottest*
    rows, so the probability that a gather hits is the distribution's
    coverage of that prefix.
    Splitting by the shared hot-prefix definition
    (:func:`repro.data.distributions.hot_prefix_rows`, the same prefix
    :class:`~repro.serving.workload.SkewedCostModel` charges
    ``hot_cost_fraction`` for):

    * a *hot* gather (rank < ``hot_rows``) hits with probability
      ``coverage(min(p, hot_rows)) / coverage(hot_rows)``;
    * a *cold* gather hits with probability
      ``max(0, coverage(p) - coverage(hot_rows)) / (1 - coverage(hot_rows))``.

    ``coverage`` is far too slow to evaluate per query (the Zipf CDF sums a
    65536-rank exact head), so both curves are precomputed on a uniform fill
    grid at construction and linearly interpolated at serve time.  The two
    endpoints bypass the interpolation: an empty cache hits nothing and a
    full cache returns the exact grid-end values (both exactly 1.0 when the
    capacity covers the whole table), which the warm-cache bit-exactness
    tests rely on.
    """

    __slots__ = (
        "capacity_rows",
        "capacity_eff",
        "inv_capacity_eff",
        "hot_rows",
        "hit_cost_fraction",
        "_step",
        "_f_hot",
        "_f_cold",
    )

    #: Fill-grid resolution; interpolation error is invisible next to the
    #: hot-prefix approximation itself.
    GRID_POINTS = 257

    def __init__(
        self,
        distribution: AccessDistribution,
        capacity_rows: int,
        hot_rows: int,
        hit_cost_fraction: float,
    ) -> None:
        if capacity_rows < 1:
            raise ValueError("capacity_rows must be at least 1 (0 means no cache)")
        if hot_rows < 1:
            raise ValueError("hot_rows must be at least 1")
        if not 0.0 <= hit_cost_fraction <= 1.0:
            raise ValueError("hit_cost_fraction must be in [0, 1]")
        num_items = distribution.num_items
        self.capacity_rows = int(capacity_rows)
        self.capacity_eff = min(self.capacity_rows, num_items)
        #: Cached reciprocal: ``fill_fraction`` is read on every routing
        #: decision of the recovery-aware policy, so the division is paid
        #: once here (the full-cache case is special-cased to exactly 1.0 —
        #: ``x * (1/x)`` is not 1.0 for every x).
        self.inv_capacity_eff = 1.0 / self.capacity_eff
        self.hot_rows = min(int(hot_rows), num_items)
        self.hit_cost_fraction = float(hit_cost_fraction)
        cov_hot = distribution.coverage(self.hot_rows)
        cold_mass = 1.0 - cov_hot
        points = min(self.GRID_POINTS, self.capacity_eff + 1)
        self._step = self.capacity_eff / (points - 1) if points > 1 else 1.0
        f_hot = []
        f_cold = []
        for index in range(points):
            fill = round(index * self._step)
            cov_fill = distribution.coverage(fill)
            f_hot.append(
                distribution.coverage(min(fill, self.hot_rows)) / cov_hot
                if cov_hot > 0
                else 0.0
            )
            f_cold.append(
                max(0.0, cov_fill - cov_hot) / cold_mass if cold_mass > 0 else 0.0
            )
        if self.capacity_eff >= num_items:
            # Full-table capacity: the endpoint is exact by construction
            # (coverage(num_items) == 1.0), every gather hits a full cache.
            f_hot[-1] = 1.0
            f_cold[-1] = 1.0
        self._f_hot = f_hot
        self._f_cold = f_cold

    @property
    def step(self) -> float:
        """Fill-grid spacing in rows (the lerp divisor)."""
        return self._step

    @property
    def grid_hot(self) -> list:
        """Hot-gather hit fractions on the fill grid (treat as read-only).

        Exposed so ``ReplicaPool.cached_price`` can inline the
        :meth:`hit_fractions` lerp with the exact same list lookups this
        class performs.
        """
        return self._f_hot

    @property
    def grid_cold(self) -> list:
        """Cold-gather hit fractions on the fill grid (treat as read-only)."""
        return self._f_cold

    def hit_fractions(self, fill_rows: float) -> tuple[float, float]:
        """(hot-gather, cold-gather) hit probabilities at a given fill."""
        if fill_rows <= 0.0:
            return 0.0, 0.0
        f_hot = self._f_hot
        f_cold = self._f_cold
        if fill_rows >= self.capacity_eff:
            return f_hot[-1], f_cold[-1]
        position = fill_rows / self._step
        index = int(position)
        if index >= len(f_hot) - 1:
            return f_hot[-1], f_cold[-1]
        frac = position - index
        hot_a = f_hot[index]
        cold_a = f_cold[index]
        return (
            hot_a + frac * (f_hot[index + 1] - hot_a),
            cold_a + frac * (f_cold[index + 1] - cold_a),
        )


class ReplicaServer:
    """A single container replica modelled as a FIFO batch queue.

    Each replica serves one batch at a time (service times already assume a
    query uses the whole container's resources, matching how per-replica QPS
    is defined throughout the planner).  A query submitted at ``arrival``
    either joins the batch currently forming (if the batch has room and has
    not started service yet) or opens a new batch that starts at
    ``max(arrival, busy_until, ready_at)`` — plus the batching window when
    one is configured, giving later queries a chance to share the batch.

    Joining a batch extends the batch's completion by the member's
    incremental cost; every member's recorded completion is the batch
    completion as of the moment it joined, so completions stay monotone.

    Invariant relied on by the pool-array routing layer: ``busy_until``
    starts at ``ready_at`` and only ever increases, so ``busy_until`` *is*
    the queue-drain time ``max(busy_until, ready_at)``.
    """

    __slots__ = (
        "_name",
        "_ready_at",
        "_busy_until",
        "_max_batch",
        "_single",
        "_batch_window_s",
        "_batch_model",
        "_unit_scale",
        "_completed",
        "_batches",
        "_failed",
        "_draining",
        "_batch_start",
        "_batch_count",
        "_batch_mult_sum",
        "_batch_base",
        "_run_starts",
        "_run_ends",
    )

    def __init__(
        self,
        name: str,
        ready_at: float = 0.0,
        max_batch: int = 1,
        batch_window_s: float = 0.0,
        batch_model: BatchLatencyModel | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")
        self._name = name
        self._ready_at = float(ready_at)
        self._busy_until = float(ready_at)
        self._max_batch = int(max_batch)
        self._single = self._max_batch == 1
        self._batch_window_s = float(batch_window_s)
        self._batch_model = batch_model
        # Slope of factor(1, m) in the multiplier, precomputed so the
        # single-query-batch hot path prices a query with one fused
        # multiply-add instead of two method calls.  ``None`` means no model
        # (factor(1, m) == m); dense ignores multipliers (slope 0.0, so the
        # expression is exactly 1.0); embedding and monolithic share
        # ``1 + (1 - overhead) * (m - 1)`` at batch size one (the monolithic
        # dense term ``1 ** exponent`` is exactly 1.0).
        if batch_model is None:
            self._unit_scale = None
        elif batch_model.kind == "dense":
            self._unit_scale = 0.0
        else:
            self._unit_scale = 1.0 - batch_model.overhead_fraction
        self._completed = 0
        self._batches = 0
        self._failed = False
        self._draining = False
        # Forming-batch state: service-start time, member count, summed cost
        # multipliers and the batch's base (mean per-query) service time.
        self._batch_start = 0.0
        self._batch_count = 0
        self._batch_mult_sum = 0.0
        self._batch_base = 0.0
        # Merged [start, end) busy runs as parallel lists; FIFO submits only
        # ever extend the last run or open a new one, so both stay short (one
        # entry per idle gap, not per query) and the ends stay sorted —
        # windowed lookups bisect into them.
        self._run_starts: list[float] = []
        self._run_ends: list[float] = []

    @property
    def name(self) -> str:
        """Replica name."""
        return self._name

    @property
    def ready_at(self) -> float:
        """Time at which the replica finished starting up."""
        return self._ready_at

    @property
    def busy_until(self) -> float:
        """Time at which the replica's queue drains."""
        return self._busy_until

    @property
    def completed_queries(self) -> int:
        """Queries served so far."""
        return self._completed

    @property
    def completed_batches(self) -> int:
        """Batches opened so far (each serves one or more queries)."""
        return self._batches

    @property
    def max_batch(self) -> int:
        """Largest number of queries one batch may coalesce."""
        return self._max_batch

    @property
    def batch_model(self) -> BatchLatencyModel | None:
        """The latency model scaling this replica's batch service times."""
        return self._batch_model

    @property
    def failed(self) -> bool:
        """Whether the replica was killed by a fault event."""
        return self._failed

    @property
    def draining(self) -> bool:
        """Whether the replica is being drained (no new traffic)."""
        return self._draining

    def fail(self) -> None:
        """Mark the replica dead (fault injection): it must not serve again."""
        self._failed = True

    def start_drain(self) -> None:
        """Stop accepting new traffic ahead of an eviction."""
        self._draining = True

    def is_ready(self, now: float) -> bool:
        """Whether the replica can accept traffic at ``now``."""
        return now >= self._ready_at

    # ------------------------------------------------------------------
    # Batch mechanics
    # ------------------------------------------------------------------
    def _factor(self, count: int, mult_sum: float) -> float:
        if self._batch_model is not None:
            return self._batch_model.factor(count, mult_sum)
        # No model: gather-style linear scaling in the summed multipliers
        # (exactly 1.0 for a single average-cost query).
        return mult_sum

    def _unit_factor(self, multiplier: float) -> float:
        """``factor(1, multiplier)`` via the precomputed slope (bit-exact)."""
        scale = self._unit_scale
        if scale is None:
            return self._factor(1, multiplier)
        return 1.0 + scale * (multiplier - 1.0)

    def unit_service(self, service_time: float, multiplier: float = 1.0) -> float:
        """Service seconds of a fresh single-query batch (no queue effects).

        The cost-weighted routing policy's array path uses this shared scalar:
        with uniform single-query batches, every replica's predicted
        completion is ``max(arrival, busy_until) + unit_service(...)``.
        """
        return service_time * self._unit_factor(multiplier)

    def _can_join(self, arrival: float) -> bool:
        return (
            self._max_batch > 1
            and 0 < self._batch_count < self._max_batch
            and arrival <= self._batch_start
        )

    def submit(self, arrival: float, service_time: float, multiplier: float = 1.0) -> float:
        """Enqueue one query and return its (batch's) completion time.

        ``service_time`` is the deployment's mean per-query service time and
        ``multiplier`` the query's sampled cost multiplier (1.0 for an
        average query).
        """
        if service_time <= 0:
            raise ValueError("service_time must be positive")
        if multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if not self._single and self._can_join(arrival):
            self._batch_count += 1
            # The batch's cost is accounted in units of its opener's base
            # service time; a joiner with a different base contributes
            # proportionally (ratio 1.0, and bit-exact, in the uniform case).
            self._batch_mult_sum += multiplier * (service_time / self._batch_base)
            completion = self._batch_start + self._batch_base * self._factor(
                self._batch_count, self._batch_mult_sum
            )
            completion = max(completion, self._busy_until)
            self._busy_until = completion
            self._run_ends[-1] = completion
        else:
            busy = self._busy_until
            # busy_until >= ready_at always, so the two-way comparison is the
            # historical three-way max(arrival, busy_until, ready_at).
            start = arrival if arrival > busy else busy
            if self._single:
                # Single-query batches: no forming-batch state to maintain,
                # and an average-cost query has a factor of exactly 1.0.
                # The general case inlines the precomputed unit slope — one
                # fused multiply-add, no _factor/factor calls on the hot path
                # (bit-exact with factor(1, multiplier) for every model kind).
                if multiplier == 1.0:
                    service = service_time
                else:
                    scale = self._unit_scale
                    if scale is None:
                        service = service_time * multiplier
                    else:
                        service = service_time * (1.0 + scale * (multiplier - 1.0))
            else:
                if self._batch_window_s > 0:
                    # Hold the batch open so near-future queries can share it.
                    window_start = arrival + self._batch_window_s
                    if window_start > start:
                        start = window_start
                self._batch_start = start
                self._batch_count = 1
                self._batch_mult_sum = multiplier
                self._batch_base = service_time
                service = service_time * self._factor(1, multiplier)
            self._batches += 1
            completion = start + service
            self._busy_until = completion
            run_ends = self._run_ends
            if run_ends and start <= run_ends[-1]:
                run_ends[-1] = completion
            else:
                self._run_starts.append(start)
                run_ends.append(completion)
        self._completed += 1
        return completion

    def predicted_completion(
        self, arrival: float, service_time: float, multiplier: float = 1.0
    ) -> float:
        """What :meth:`submit` would return, without mutating the queue.

        Used by cost-aware routing policies: a replica with a joinable
        forming batch can complete an extra query earlier than its
        ``busy_until`` suggests.
        """
        if service_time <= 0:
            raise ValueError("service_time must be positive")
        if multiplier <= 0:
            raise ValueError("multiplier must be positive")
        if self._can_join(arrival):
            joined_sum = self._batch_mult_sum + multiplier * (
                service_time / self._batch_base
            )
            completion = self._batch_start + self._batch_base * self._factor(
                self._batch_count + 1, joined_sum
            )
            return max(completion, self._busy_until)
        start = max(arrival, self._busy_until, self._ready_at)
        if self._max_batch > 1 and self._batch_window_s > 0:
            start = max(start, arrival + self._batch_window_s)
        return start + service_time * self._unit_factor(multiplier)

    def prune_runs(self, before: float) -> None:
        """Forget busy runs ending at or before ``before``.

        A run behind ``before`` contributes zero to any window starting at or
        after it, so :meth:`busy_seconds_between` / :meth:`utilization` over
        such windows are byte-identical with or without the prune.  The
        engine calls this with each sample tick's window start: utilization
        windows only move forward, and without the prune a replica's busy
        history grows one entry per idle gap for the whole run.
        """
        cut = bisect_right(self._run_ends, before)
        if cut:
            del self._run_starts[:cut]
            del self._run_ends[:cut]

    def busy_seconds_between(self, start_s: float, end_s: float) -> float:
        """Service time accumulated inside ``[start_s, end_s)``.

        Both window edges are found by binary search (starts and ends are
        each increasing), so only the runs intersecting the window are
        walked — O(log runs + overlap) rather than a scan of the full busy
        history per sample tick.  The runs are disjoint, so the window can
        clip at most the first run's start and the last run's end; plain
        comparisons replace the ``min``/``max`` builtin calls (identical
        values, no per-run call overhead — under a churny autoscaler the
        walk covers hundreds of short runs per utilization sample).
        """
        run_starts = self._run_starts
        run_ends = self._run_ends
        lo = bisect_right(run_ends, start_s)
        hi = bisect_left(run_starts, end_s, lo)
        total = 0.0
        for run_start, run_end in zip(
            islice(run_starts, lo, hi), islice(run_ends, lo, hi)
        ):
            if run_start < start_s:
                run_start = start_s
            if run_end > end_s:
                run_end = end_s
            total += run_end - run_start
        return total

    def utilization(self, now: float, window_start: float = 0.0) -> float:
        """Fraction of wall-clock time spent serving over a window.

        Both sides of the ratio are confined to the window: the denominator
        runs from ``max(ready_at, window_start)`` to ``now``, and the
        numerator only counts service time inside it.  A replica that became
        ready long before the window does not have its recent utilization
        diluted (or inflated) by old history, and a replica that started
        mid-window is only accountable for the time it was up.
        """
        start = max(self._ready_at, window_start)
        elapsed = now - start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds_between(start, now) / elapsed)


def serve_least_work(
    servers: Sequence[ReplicaServer],
    ready: Sequence[float],
    arrivals: Sequence[float],
    service_time: float,
    multipliers: Sequence[float] | None = None,
    price: Callable[[int, int], float] | None = None,
    chosen: list[int] | None = None,
    warmup_s: float = 0.0,
    penalties: Sequence[float] | None = None,
) -> list[float]:
    """Serve queries in arrival order on one lane of single-query replicas.

    Each query goes to the replica whose queue drains first (lowest index
    on ties), starts at ``max(arrival, drain time)`` and runs for its unit
    batch service time: the k-server FIFO workload recursion
    (Kiefer-Wolfowitz).  It is exactly what least-work routing followed by
    :meth:`ReplicaServer.submit` computes query by query on replicas that
    serve ``max_batch=1`` batches under one shared batch model, including
    each server's counters and merged busy runs, written in query order.

    ``ready`` holds each replica's ready time: a replica joins the ranking
    once an arrival reaches it, and every replica ranks while none has.  With ``penalties`` (one penalty in seconds per
    query), a replica also carries a cold penalty until ``ready +
    warmup_s``: it ranks at its drain time plus ``penalties[query] *
    (((ready + warmup_s) - arrival) / warmup_s)``, the IEEE operations of
    :meth:`~repro.serving.routing.RecoveryAwarePolicy.select_index`.
    Replicas that are ready with no penalty left stay in a ``(drain time,
    index)`` heap; the others are ranked beside its top, query by query,
    until they join it.

    ``multipliers`` are the queries' cost multipliers (all 1.0 when
    ``None``); ``price(index, query)``, when given, returns instead the
    multiplier of the ``query``-th arrival on replica ``index`` (the
    embedding-cache tier prices against the chosen replica's fill).
    Returns each query's completion time; when ``chosen`` is given, each
    query's replica index is appended to it.
    """
    if service_time <= 0:
        raise ValueError("service_time must be positive")
    # submit's single-query pricing, factor(1, m) through the unit slope; at
    # m == 1.0 both forms are exactly service_time, as submit's shortcut.
    scale = servers[0]._unit_scale
    if price is not None:
        services = None
    elif multipliers is None:
        services = [service_time] * len(arrivals)
    elif scale is None:
        services = [service_time * m for m in multipliers]
    else:
        services = [service_time * (1.0 + scale * (m - 1.0)) for m in multipliers]
    drains = [server._busy_until for server in servers]
    # When each replica joins the (drain time, index) heap: once it is ready
    # with no penalty left.  Latest first, so the next to join pops last.
    joins = ready if penalties is None else [at + warmup_s for at in ready]
    pending = sorted(zip(joins, range(len(servers))), reverse=True)
    queue = []
    served = [0] * len(servers)
    run_starts = [server._run_starts for server in servers]
    run_ends = [server._run_ends for server in servers]
    completions = []
    for query, arrival in enumerate(arrivals):
        while pending and pending[-1][0] <= arrival:
            index = pending.pop()[1]
            heappush(queue, (drains[index], index))
        if pending and (penalties is not None or not queue):
            # Ready replicas rank (the heap top plus any still warming);
            # while none is ready, every replica does.
            warming = [entry for entry in pending if ready[entry[1]] <= arrival]
            if queue:
                drain, index = queue[0]
            else:
                drain, index = inf, len(drains)
                if not warming:
                    warming = pending
            best = drain
            penalty = None if penalties is None else penalties[query]
            for plain_at, other in warming:
                key = drains[other]
                if penalty is not None:
                    key = key + penalty * ((plain_at - arrival) / warmup_s)
                if key < best or (key == best and other < index):
                    best, index = key, other
                    drain = drains[other]
        else:
            drain, index = queue[0]
        if services is not None:
            service = services[query]
        elif scale is None:
            service = service_time * price(index, query)
        else:
            service = service_time * (1.0 + scale * (price(index, query) - 1.0))
        start = arrival if arrival > drain else drain
        completion = start + service
        if queue and queue[0][1] == index:
            heapreplace(queue, (completion, index))
        else:
            drains[index] = completion
        served[index] += 1
        ends = run_ends[index]
        if ends and start <= ends[-1]:
            ends[-1] = completion
        else:
            run_starts[index].append(start)
            ends.append(completion)
        completions.append(completion)
        if chosen is not None:
            chosen.append(index)
    for drain, index in queue:
        drains[index] = drain
    for index, server in enumerate(servers):
        server._busy_until = drains[index]
        server._completed += served[index]
        server._batches += served[index]
    return completions


def least_work_state(servers: Sequence[ReplicaServer]) -> tuple:
    """What :func:`serve_least_work` reads of ``servers``.

    The shared unit slope, then each server's drain time and last busy-run
    end (``None`` before its first run).  Two lanes whose servers have
    equal states, served with equal other arguments, leave the kernel with
    equal completions and equal server changes.
    """
    return (
        servers[0]._unit_scale,
        tuple([server._busy_until for server in servers]),
        tuple([server._run_ends[-1] if server._run_ends else None for server in servers]),
    )


def least_work_marks(servers: Sequence[ReplicaServer]) -> list[tuple[int, int]]:
    """Each server's (completed queries, busy runs), taken before a
    :func:`serve_least_work` call for :func:`copy_least_work`."""
    return [(server._completed, len(server._run_ends)) for server in servers]


def copy_least_work(
    primary: Sequence[ReplicaServer],
    marks: Sequence[tuple[int, int]],
    twins: Sequence[ReplicaServer],
) -> None:
    """Apply to ``twins`` what :func:`serve_least_work` did to ``primary``.

    ``marks`` are :func:`least_work_marks` of ``primary`` before the call,
    and the twins had the primary's :func:`least_work_state` then, so the
    call would have done the same to them: each twin takes its primary's
    drain time, served count (as queries and single-query batches), merged
    last busy-run end and appended runs.
    """
    for server, (completed, runs), twin in zip(primary, marks, twins):
        served = server._completed - completed
        twin._busy_until = server._busy_until
        twin._completed += served
        twin._batches += served
        ends = server._run_ends
        if runs:
            twin._run_ends[-1] = ends[runs - 1]
        twin._run_starts += server._run_starts[runs:]
        twin._run_ends += ends[runs:]
