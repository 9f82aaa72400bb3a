"""Parallel sweep runner over the scenario × routing × replica-budget grid.

A *sweep* fans one serving configuration across a grid of cells — every
combination of traffic scenario, routing policy and per-deployment replica
budget — and simulates each cell with the multi-tenant engine (one or more
co-located tenants per cell).  Cells are embarrassingly parallel, so the
runner can spread them over a pool of worker processes; results are merged in
grid order, so a parallel sweep is byte-identical to a serial one.

Determinism contract:

* every cell derives its seed from ``(config.seed, cell index)`` through
  :func:`repro.parallel.subseed` (:class:`numpy.random.SeedSequence`
  fan-out), so seeds do not depend on worker count or scheduling order;
  the process pool likewise comes from the shared
  :func:`repro.parallel.pool_context` (fork preferred, spawn fallback);
* workers rebuild plans from the (deterministic) planner rather than
  receiving pickled state, so a cell computes the same result in any process;
* :meth:`SweepResult.digest` hashes the merged rows, making "serial == parallel"
  a one-line assertion.

Use :func:`run_sweep` from Python or ``python -m repro sweep`` from the
command line.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import asdict, dataclass, field
from typing import Sequence

from repro.analysis.report import format_table
from repro.core.plan import DeploymentPlan
from repro.experiments.common import cluster_for_system, plan_elasticrec
from repro.model.configs import DLRMConfig, workload_presets
from repro.parallel import pool_context, subseed
from repro.serving.engine import MultiTenantEngine, TenantSpec
from repro.serving.faults import resolve_fault_spec
from repro.serving.replanner import make_replan_policy
from repro.serving.routing import resolve_routing_names
from repro.serving.scenarios import build_scenario, resolve_scenario_names
from repro.serving.spec import is_off
from repro.serving.watchdog import make_slo_policy
from repro.serving.workload import parse_drift_spec, resolve_cost_model_name

__all__ = [
    "SweepConfig",
    "SweepCell",
    "SweepResult",
    "build_grid",
    "run_cell",
    "run_sweep",
]


@dataclass(frozen=True)
class SweepConfig:
    """The fixed (non-grid) parameters shared by every cell of a sweep."""

    workload: str = "RM1"
    system: str = "cpu"
    num_nodes: int | None = 8
    num_tables: int | None = 4
    tenants: int = 1
    base_qps: float = 18.0
    peak_qps: float = 90.0
    duration_s: float = 600.0
    sample_interval_s: float = 15.0
    seed: int = 0
    autoscale: bool = True
    cost_model: str = "homogeneous"
    max_batch: int = 1
    #: Fault scenario name or fault script applied to every cell's tenants
    #: ("none" keeps the sweep bit-exact with a fault-unaware one).
    faults: str = "none"
    #: Per-replica embedding cache capacity in MB for every cell's tenants
    #: (0 disables the cache; non-zero needs the skewed cost model).
    cache_mb: float = 0.0
    #: Access-skew drift schedule applied to every cell's tenants ("none"
    #: keeps the sweep bit-exact with a drift-unaware one; non-none needs the
    #: skewed cost model).
    drift: str = "none"
    #: Online re-planning trigger applied to every cell's tenants ("none"
    #: disables the drift detector).
    replan: str = "none"
    #: Self-healing SLO watchdog applied to every cell's tenants ("none"
    #: keeps the sweep bit-exact with a watchdog-unaware one).
    slo: str = "none"

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError("tenants must be at least 1")
        if self.duration_s <= 0 or self.sample_interval_s <= 0:
            raise ValueError("duration_s and sample_interval_s must be positive")
        if self.base_qps < 0 or self.peak_qps < self.base_qps:
            raise ValueError("need 0 <= base_qps <= peak_qps")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.cache_mb < 0:
            raise ValueError("cache_mb must be non-negative")
        resolve_cost_model_name(self.cost_model)
        # Cells run in worker processes: resolve the control specs here so a
        # malformed one fails once, in the parent, with its SpecError.
        resolve_fault_spec(self.faults)
        if not is_off(self.drift):
            parse_drift_spec(self.drift)
        make_replan_policy(self.replan)
        make_slo_policy(self.slo)


@dataclass(frozen=True)
class SweepCell:
    """One grid point: scenario × routing × replica budget, plus its seed."""

    index: int
    scenario: str
    routing: str
    replica_budget: int
    seed: int


def build_grid(
    scenarios: Sequence[str],
    routings: Sequence[str],
    replica_budgets: Sequence[int],
    base_seed: int = 0,
) -> list[SweepCell]:
    """Materialise the full grid in deterministic (product) order."""
    if not replica_budgets:
        raise ValueError("at least one replica budget is required")
    cells = []
    for index, (scenario, routing, budget) in enumerate(
        itertools.product(scenarios, routings, replica_budgets)
    ):
        if budget <= 0:
            raise ValueError("replica budgets must be positive")
        cells.append(
            SweepCell(
                index=index,
                scenario=scenario,
                routing=routing,
                replica_budget=int(budget),
                seed=subseed(base_seed, index),
            )
        )
    return cells


def _resolve_workload(config: SweepConfig) -> DLRMConfig:
    presets = workload_presets()
    try:
        workload = presets[config.workload.upper()]
    except KeyError:
        known = ", ".join(sorted(presets))
        raise ValueError(f"unknown workload {config.workload!r}; choose from {known}") from None
    if config.num_tables is not None:
        workload = workload.scaled_tables(config.num_tables).with_name(
            f"{workload.name}-{config.num_tables}t"
        )
    return workload


def _build_plan(config: SweepConfig) -> DeploymentPlan:
    workload = _resolve_workload(config)
    cluster = cluster_for_system(config.system)
    if config.num_nodes is not None:
        cluster = cluster.with_nodes(config.num_nodes)
    # Memoised: a serial sweep plans once and reuses the plan for every cell.
    return plan_elasticrec(workload, cluster, config.base_qps)


def run_cell(config: SweepConfig, cell: SweepCell) -> dict[str, float | int | str]:
    """Simulate one grid cell and return its merged row.

    The row contains only deterministic scalars (grid coordinates plus
    tenant-aggregated and cluster-wide metrics), so rows compare byte-for-byte
    across serial and parallel execution.
    """
    plan = _build_plan(config)
    tenants = []
    for tenant_index in range(config.tenants):
        pattern = build_scenario(
            cell.scenario,
            config.base_qps,
            config.peak_qps,
            config.duration_s,
            seed=cell.seed + tenant_index,
        )
        tenants.append(
            TenantSpec(
                name=f"tenant-{tenant_index}",
                plan=plan,
                pattern=pattern,
                routing=cell.routing,
                seed=cell.seed + tenant_index,
                autoscale=config.autoscale,
                sample_interval_s=config.sample_interval_s,
                max_replicas=cell.replica_budget,
                cost_model=config.cost_model,
                max_batch=config.max_batch,
                faults=config.faults,
                cache_mb=config.cache_mb,
                drift=config.drift,
                replan=config.replan,
                slo=config.slo,
            )
        )
    result = MultiTenantEngine(tenants, cluster_spec=plan.cluster).run()

    per_tenant = list(result.tenants.values())
    queries = float(sum(r.tracker.num_samples for r in per_tenant))
    weighted_mean = (
        sum(r.mean_latency_ms * r.tracker.num_samples for r in per_tenant) / queries
        if queries
        else 0.0
    )
    violations = float(sum(r.sla_violation_count() for r in per_tenant))
    completed = float(sum(r.completed_queries for r in per_tenant))
    series = result.cluster_series
    return {
        "scenario": cell.scenario,
        "routing": cell.routing,
        "replica_budget": cell.replica_budget,
        "seed": cell.seed,
        "total_queries": queries,
        "mean_latency_ms": weighted_mean,
        "worst_p95_ms": max(r.overall_p95_latency_ms for r in per_tenant),
        "sla_violation_fraction": violations / queries if queries else 0.0,
        "availability": completed / queries if queries else 1.0,
        "requeued": float(sum(r.requeued_queries for r in per_tenant)),
        "peak_memory_gb": series.peak_memory_gb,
        "mean_utilization": series.mean_memory_utilization,
        "peak_pending": series.peak_pending_placements,
    }


def _run_cell_args(args: tuple[SweepConfig, SweepCell]) -> dict[str, float | int | str]:
    return run_cell(*args)


@dataclass
class SweepResult:
    """Merged rows of one sweep, in grid order."""

    config: SweepConfig
    cells: list[SweepCell]
    rows: list[dict[str, float | int | str]] = field(default_factory=list)

    def to_table(self) -> str:
        """Render the merged grid as an aligned plain-text table."""
        display = [
            {k: v for k, v in row.items() if k != "seed"} for row in self.rows
        ]
        title = (
            f"sweep of {self.config.workload} ({len(self.rows)} cells, "
            f"{self.config.tenants} tenant(s)/cell, seed {self.config.seed})"
        )
        return format_table(display, title=title)

    def digest(self) -> str:
        """Deterministic fingerprint of the merged results (serial == parallel)."""
        canonical = repr([sorted(row.items()) for row in self.rows])
        canonical += repr(sorted(asdict(self.config).items()))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def best_cell(self, metric: str = "worst_p95_ms") -> dict[str, float | int | str]:
        """The row minimising ``metric`` (ties break toward the earliest cell)."""
        if not self.rows:
            raise ValueError("the sweep produced no rows")
        return min(self.rows, key=lambda row: row[metric])

    def summary(self) -> dict[str, float | str]:
        """Headline aggregates of the whole sweep."""
        best = self.best_cell()
        return {
            "cells": float(len(self.rows)),
            "total_queries": float(sum(row["total_queries"] for row in self.rows)),
            "best_scenario": best["scenario"],
            "best_routing": best["routing"],
            "best_replica_budget": float(best["replica_budget"]),
            "best_worst_p95_ms": float(best["worst_p95_ms"]),
            "digest": self.digest()[:16],
        }


def run_sweep(
    config: SweepConfig,
    scenarios: str | Sequence[str] = "all",
    routings: str | Sequence[str] = "all",
    replica_budgets: Sequence[int] = (4, 16, 64),
    workers: int = 1,
) -> SweepResult:
    """Run every cell of the grid, optionally across worker processes.

    ``workers <= 1`` runs serially in-process; larger values fan the cells
    over a process pool.  Results are merged in grid order either way, so the
    worker count never changes the outcome (see :meth:`SweepResult.digest`).
    """
    scenario_list = resolve_scenario_names(scenarios)
    routing_list = resolve_routing_names(routings)
    _resolve_workload(config)  # fail fast on an unknown workload name
    cells = build_grid(scenario_list, routing_list, replica_budgets, base_seed=config.seed)
    if workers <= 1 or len(cells) == 1:
        rows = [run_cell(config, cell) for cell in cells]
    else:
        with pool_context().Pool(processes=min(workers, len(cells))) as pool:
            rows = pool.map(_run_cell_args, [(config, cell) for cell in cells], chunksize=1)
    return SweepResult(config=config, cells=cells, rows=rows)
