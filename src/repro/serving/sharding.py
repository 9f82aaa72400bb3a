"""Sharded multi-process engine runs: plan, worker entrypoint, merge.

A :class:`~repro.serving.engine.MultiTenantEngine` run is *shardable by
tenant*: every tenant draws its arrivals, costs and faults from dedicated
``SeedSequence`` streams keyed only by its own seed, so a worker simulating
a subset of tenants against its own slice of the node pool produces — query
for query, sample for sample — the bytes the serial run produces for those
tenants.  :func:`run_sharded` exploits that: it partitions the tenant list
across worker processes (:func:`repro.parallel.partition_indices`, fork
preferred / spawn fallback via :func:`repro.parallel.pool_context`), runs
one engine per shard, and merges the shards back into one
:class:`~repro.serving.engine.MultiTenantResult` in the original tenant
order.  ``SimulationResult.digest()`` equality between the sharded and
serial runs is the gated contract (see
``tests/serving/test_sharded_equivalence.py``).

When sharding is bit-exact — and when it is not
-----------------------------------------------

Exactness holds when the tenants do not *interact* through the shared pool:

* the pool has capacity headroom, so no tenant's placement ever queues
  behind another tenant's replicas (true of every stock configuration —
  pending placements are visible in :class:`ClusterSeries` if not);
* no tenant injects **node-drain** faults: a drain cordons a *shared* node
  and evicts every tenant's replicas on it, which cannot be reproduced from
  inside a single shard.  :func:`plan_shards` rejects such runs with a
  one-line error rather than silently diverging.

Per-tenant replica crashes, stragglers and degradations are tenant-local
(dedicated ``[seed, 3]`` fault RNG) and shard exactly.  The merged
:class:`ClusterSeries` sums per-shard pool series; the memory series is an
exact sum, while ``nodes_in_use`` may exceed the serial value (the serial
scheduler can pack two tenants onto one node where shards cannot).

Streaming: pass ``stream_dir`` and each worker flushes its series and
latency samples to an on-disk spool (:mod:`repro.serving.streaming`)
instead of holding whole-run arrays; :func:`merge_stream` rebuilds the
exact in-memory result from the spool afterwards.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.hardware.specs import ClusterSpec
from repro.parallel import partition_indices, peak_rss_mb, pool_context
from repro.serving.engine import (
    ClusterSeries,
    MultiTenantEngine,
    MultiTenantResult,
    SimulationResult,
    TenantSpec,
    _MANIFEST_KEYS,
    _tenant_patterns,
    result_from_chunks,
)
from repro.serving.faults import NodeDrain, make_fault_model
from repro.serving.latency import LatencyTracker
from repro.serving.streaming import (
    SpoolError,
    SpoolWriter,
    StreamConfig,
    claim_spool,
    iter_chunks,
    read_meta,
)

__all__ = ["ShardPlan", "plan_shards", "run_sharded", "merge_stream"]


@dataclass(frozen=True)
class ShardPlan:
    """How a tenant list maps onto worker processes and node-pool slices."""

    #: Per shard: the indices (into the original tenant list) it simulates.
    tenant_indices: tuple[tuple[int, ...], ...]
    #: Per shard: how many nodes of the pool it owns (sums to the pool size).
    node_counts: tuple[int, ...]

    @property
    def num_shards(self) -> int:
        return len(self.tenant_indices)


def _drains_nodes(tenant: TenantSpec) -> bool:
    """Whether the tenant's fault spec schedules any node-drain event.

    Drains come only from scripted events, so materialising the timeline
    with a throwaway RNG (stochastic processes emit replica crashes, never
    drains) answers this without touching the tenant's real fault stream.
    """
    model = make_fault_model(tenant.faults, tenant.pattern.duration_s)
    if model is None:
        return False
    timeline = model.timeline(tenant.pattern.duration_s, np.random.default_rng(0))
    return any(isinstance(event, NodeDrain) for _, event in timeline)


def _proportional_split(total: int, weights: Sequence[int]) -> list[int]:
    """Split ``total`` into ``len(weights)`` positive parts ∝ ``weights``.

    Largest-remainder rounding (ties toward earlier parts), then a fix-up
    pass taking from the largest part so every part gets at least one —
    deterministic, so every host plans the same node slices.
    """
    denominator = sum(weights)
    ideals = [total * weight / denominator for weight in weights]
    counts = [int(ideal) for ideal in ideals]
    remainders = sorted(
        range(len(weights)), key=lambda i: (-(ideals[i] - counts[i]), i)
    )
    for index in remainders[: total - sum(counts)]:
        counts[index] += 1
    for index, count in enumerate(counts):
        while counts[index] == 0:
            donor = max(range(len(counts)), key=lambda i: counts[i])
            counts[donor] -= 1
            counts[index] += 1
    return counts


def plan_shards(
    tenants: Sequence[TenantSpec],
    workers: int,
    cluster_spec: ClusterSpec | None = None,
) -> ShardPlan:
    """Partition a multi-tenant run across ``workers`` processes.

    Tenants are split contiguously and near-evenly
    (:func:`repro.parallel.partition_indices` — ``workers`` is clamped to
    the tenant count), and the node pool is sliced proportionally to each
    shard's tenant count.  Raises a one-line :class:`ValueError` for a
    tenant without a traffic pattern and for runs that cannot shard
    exactly: node-drain fault specs (cross-tenant by construction) and
    pools with fewer nodes than shards.
    """
    tenants = list(tenants)
    if not tenants:
        raise ValueError("at least one tenant is required")
    _tenant_patterns(tenants)
    spec = cluster_spec if cluster_spec is not None else tenants[0].plan.cluster
    parts = partition_indices(len(tenants), workers)
    if len(parts) > 1:
        for tenant in tenants:
            if _drains_nodes(tenant):
                raise ValueError(
                    f"tenant {tenant.name!r} injects node drains, which hit the "
                    "shared node pool across tenant boundaries; node-drain "
                    "faults need a single-process run (--shard-workers 1)"
                )
        if spec.num_nodes < len(parts):
            raise ValueError(
                f"cannot slice a {spec.num_nodes}-node pool across "
                f"{len(parts)} workers; use at most {spec.num_nodes} workers"
            )
    if len(parts) == 1:
        node_counts = [spec.num_nodes]
    else:
        node_counts = _proportional_split(spec.num_nodes, [len(p) for p in parts])
    return ShardPlan(
        tenant_indices=tuple(tuple(part) for part in parts),
        node_counts=tuple(node_counts),
    )


def _run_shard(args: tuple) -> tuple:
    """Worker entrypoint: simulate one shard's tenants on its pool slice.

    Module-level (not a closure) so it pickles under both fork and spawn.
    Returns ``(shard_index, MultiTenantResult | None, capacity_gb,
    peak_rss_mb)``, ``None`` for a streamed shard — the RSS is sampled here,
    inside the worker, so each shard reports its own high-water mark rather
    than the parent's.
    """
    (
        shard_index,
        tenants,
        shard_spec,
        namespace,
        stream_dir,
        spill_threshold,
        flush_series_every,
    ) = args
    stream = (
        StreamConfig(
            directory=Path(stream_dir),
            spill_threshold=spill_threshold,
            flush_series_every=flush_series_every,
        )
        if stream_dir is not None
        else None
    )
    engine = MultiTenantEngine(
        tenants, cluster_spec=shard_spec, namespace=namespace, stream=stream
    )
    capacity_gb = engine.cluster.memory_capacity_gb
    outcome = engine.run()
    return shard_index, outcome, capacity_gb, peak_rss_mb()


def _merge_cluster_series(
    parts: Sequence[ClusterSeries], capacities: Sequence[float]
) -> ClusterSeries:
    """Sum per-shard pool series into one cluster-wide series.

    Memory and pending placements are exact sums; utilization is the summed
    memory over the summed capacity.  Requires every shard to sample on the
    same grid (true whenever the tenants share one ``sample_interval_s``).
    """
    if len(parts) == 1:
        return parts[0]
    times = parts[0].sample_times
    for part in parts[1:]:
        if not np.array_equal(part.sample_times, times):
            raise ValueError(
                "shards sampled on different time grids (mixed per-tenant "
                "sample intervals); merge needs a uniform grid — run "
                "single-process instead"
            )
    memory = np.sum([part.memory_gb for part in parts], axis=0)
    total_capacity = float(sum(capacities))
    return ClusterSeries(
        sample_times=times,
        memory_gb=memory,
        memory_utilization=(
            memory / total_capacity if total_capacity > 0 else np.zeros_like(memory)
        ),
        pending_placements=np.sum(
            [part.pending_placements for part in parts], axis=0, dtype=np.int64
        ),
        nodes_in_use=np.sum(
            [part.nodes_in_use for part in parts], axis=0, dtype=np.int64
        ),
    )


def run_sharded(
    tenants: Sequence[TenantSpec],
    cluster_spec: ClusterSpec | None = None,
    *,
    workers: int = 1,
    stream_dir: str | Path | None = None,
    spill_threshold: int = StreamConfig.spill_threshold,
    flush_series_every: int = StreamConfig.flush_series_every,
) -> MultiTenantResult:
    """Run a multi-tenant simulation sharded across worker processes.

    With ``workers=1`` and no ``stream_dir`` this is exactly
    ``MultiTenantEngine(tenants, cluster_spec).run()`` (same process, same
    bytes).  With more workers, each shard simulates its tenants on its
    node-pool slice in its own process; with ``stream_dir``, workers spool
    series and latency samples to disk (memory-bounded at any horizon) and
    the merge rebuilds the exact in-memory result.  ``stream_dir`` must be
    absent or empty; a non-empty one raises :class:`SpoolError` before any
    worker starts.  The returned result
    carries a ``sharding_stats`` dict: worker count, shard membership,
    per-worker peak RSS (MB), wall time, and the host's CPU count (so a
    recorded speedup can be judged against the cores that were available).
    """
    tenants = list(tenants)
    spec = cluster_spec if cluster_spec is not None else (
        tenants[0].plan.cluster if tenants else None
    )
    plan = plan_shards(tenants, workers, spec)
    namespace = len(tenants) > 1
    stream_root = claim_spool(stream_dir) if stream_dir is not None else None
    shard_names = [f"shard-{index:03d}" for index in range(plan.num_shards)]
    shard_args = []
    for shard_index, indices in enumerate(plan.tenant_indices):
        shard_args.append(
            (
                shard_index,
                [tenants[i] for i in indices],
                spec.with_nodes(plan.node_counts[shard_index]),
                namespace,
                str(stream_root / shard_names[shard_index]) if stream_root else None,
                spill_threshold,
                flush_series_every,
            )
        )
    started = time.perf_counter()
    if plan.num_shards == 1:
        outcomes = [_run_shard(shard_args[0])]
    else:
        with pool_context().Pool(processes=plan.num_shards) as pool:
            outcomes = pool.map(_run_shard, shard_args, chunksize=1)
    wall_s = time.perf_counter() - started
    outcomes.sort(key=lambda item: item[0])
    capacities = [outcome[2] for outcome in outcomes]

    if stream_root is not None:
        SpoolWriter(stream_root).write_meta(
            {
                "schema": 1,
                "status": "complete",
                "shards": shard_names,
                "tenants": [tenant.name for tenant in tenants],
                "workers": plan.num_shards,
            }
        )
        result = merge_stream(stream_root)
    else:
        merged: dict[str, SimulationResult] = {}
        for _, outcome, _, _ in outcomes:
            merged.update(outcome.tenants)
        result = MultiTenantResult(
            tenants={tenant.name: merged[tenant.name] for tenant in tenants},
            cluster_series=_merge_cluster_series(
                [outcome[1].cluster_series for outcome in outcomes], capacities
            ),
        )
    result.sharding_stats = {
        "workers": plan.num_shards,
        "requested_workers": workers,
        "shards": [
            [tenants[i].name for i in indices] for indices in plan.tenant_indices
        ],
        "node_counts": list(plan.node_counts),
        "peak_rss_mb": [outcome[3] for outcome in outcomes],
        "wall_s": wall_s,
        "streamed": stream_root is not None,
        "cpu_count": os.cpu_count() or 1,
    }
    return result


# ----------------------------------------------------------------------
# Spool merge
# ----------------------------------------------------------------------
def _merge_tenant(tenant_dir: Path) -> SimulationResult:
    """Rebuild one tenant's exact :class:`SimulationResult` from its spool."""
    meta = read_meta(tenant_dir, "tenant spool")
    missing = [key for key in (*_MANIFEST_KEYS, "num_samples") if key not in meta]
    if missing:
        raise SpoolError(f"{tenant_dir}: manifest lacks {', '.join(missing)}")
    query_chunks = list(iter_chunks(tenant_dir, "queries"))
    if query_chunks:
        completion_times = np.concatenate([c["completion_times"] for c in query_chunks])
        latencies_s = np.concatenate([c["latencies_s"] for c in query_chunks])
    else:
        completion_times = np.empty(0, dtype=np.float64)
        latencies_s = np.empty(0, dtype=np.float64)
    if completion_times.size != meta["num_samples"]:
        raise SpoolError(
            f"{tenant_dir}: manifest records {meta['num_samples']} samples but "
            f"the query chunks hold {completion_times.size}"
        )
    series_chunks = list(iter_chunks(tenant_dir, "series"))
    if not series_chunks:
        raise SpoolError(f"{tenant_dir}: the tenant spool has no series chunks")
    tracker = LatencyTracker.from_arrays(completion_times, latencies_s)
    return result_from_chunks(meta, series_chunks, tracker)


def _read_cluster_series(shard_dir: Path) -> ClusterSeries:
    chunks = list(iter_chunks(shard_dir, "cluster"))
    fields = (
        "sample_times",
        "memory_gb",
        "memory_utilization",
        "pending_placements",
        "nodes_in_use",
    )
    if chunks:
        merged = {name: np.concatenate([c[name] for c in chunks]) for name in fields}
    else:
        merged = {
            name: np.empty(0, dtype=np.int64 if name in ("pending_placements", "nodes_in_use") else np.float64)
            for name in fields
        }
    return ClusterSeries(**merged)


def merge_stream(stream_dir: str | Path) -> MultiTenantResult:
    """Rebuild a :class:`MultiTenantResult` from a streamed run's spool.

    Reads one tenant at a time, so peak memory is bounded by the largest
    single tenant, not the whole run.  Raises
    :class:`~repro.serving.streaming.SpoolError` /
    :class:`~repro.serving.streaming.SpoolTruncatedError` on incomplete or
    corrupt spools (a crashed worker never writes its commit-marker
    ``meta.json``).
    """
    stream_dir = Path(stream_dir)
    run_meta = read_meta(stream_dir, "run manifest")
    tenant_results: dict[str, SimulationResult] = {}
    cluster_parts: list[ClusterSeries] = []
    capacities: list[float] = []
    for shard_name in run_meta["shards"]:
        shard_dir = stream_dir / shard_name
        shard_meta = read_meta(shard_dir, "shard manifest")
        capacities.append(float(shard_meta["capacity_gb"]))
        cluster_parts.append(_read_cluster_series(shard_dir))
        for tenant_name, tenant_dir in zip(
            shard_meta["tenants"], shard_meta["tenant_dirs"]
        ):
            result = _merge_tenant(shard_dir / tenant_dir)
            if result.tenant != tenant_name:
                raise SpoolError(
                    f"{shard_dir / tenant_dir}: manifest names tenant "
                    f"{result.tenant!r} but the shard expected {tenant_name!r}"
                )
            tenant_results[result.tenant] = result
    missing = [name for name in run_meta["tenants"] if name not in tenant_results]
    if missing:
        raise SpoolError(f"{stream_dir}: spool is missing tenants {missing}")
    return MultiTenantResult(
        tenants={name: tenant_results[name] for name in run_meta["tenants"]},
        cluster_series=_merge_cluster_series(cluster_parts, capacities),
    )
