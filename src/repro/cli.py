"""Command-line interface: plan deployments, serve them, sweep grids.

Usage (also available as ``python -m repro``):

``python -m repro plan RM1 --system cpu --target-qps 100``
    Run the ElasticRec planner (and the model-wise baseline for comparison)
    on a Table II workload and print the resulting deployments, memory and
    server counts.

``python -m repro manifests RM1 --system cpu --target-qps 100``
    Emit Kubernetes Deployment / HorizontalPodAutoscaler manifests for the
    ElasticRec plan, as the paper's deployment module would.

``python -m repro simulate RM1 --scenario flash-crowd --routing power-of-two``
    Serve a planned deployment under a named traffic scenario with a chosen
    replica-routing policy and print the run's headline aggregates.
    ``--cost-model skewed`` samples heterogeneous per-query gather costs from
    the workload's access distribution; ``--max-batch N`` lets replicas
    coalesce queued queries into batches of up to ``N``; ``--faults`` injects
    failures from a named fault scenario (``crash-storm``, ``rolling-drain``,
    ...) or an inline fault script such as
    ``'crash@120:policy=drop;drain@300+60:node=1'``; ``--drift`` drifts the
    access skew mid-run (``'linear@60+300:to=0.2'``) and ``--replan`` lets a
    threshold-tier detector fire an online re-plan with live re-sharding
    (``'sla@1.5:patience=3,cooldown=120'``); ``--slo`` arms the self-healing
    SLO watchdog with graceful degradation
    (``'p95@1.5:p99=2.5,shed=0.1,retries=2'``).

``python -m repro simulate RM1 --tenants 8 --shard-workers 4 --stream-dir /tmp/spool``
    Serve N co-located tenants (seeds fanned out deterministically from
    ``--seed``) sharded across worker processes, streaming per-interval
    series and latency samples to an on-disk spool so memory stays bounded
    at any horizon.  Sharded runs are bit-exact with single-process runs
    whenever tenants do not contend for the shared pool (node-drain fault
    scenarios are rejected with a hint).

    Every ``simulate`` run takes one path,
    :func:`~repro.serving.sharding.run_sharded`; one worker without a spool
    is the plain in-process engine run.  The table has one row per strategy
    (and per tenant, with a ``tenant`` column, for a fleet) with the same
    columns: routing, cost model, peak memory, latency, SLA violations,
    availability and queries, plus ``replans`` under ``--replan`` and
    ``timeouts``/``degraded`` under ``--slo``.  A ``sharding:`` line (worker
    count, wall time, peak worker RSS) follows only when worker processes
    or a spool were used; ``--profile`` is refused only then.

``python -m repro sweep RM1 --scenarios constant,flash-crowd --routings all --workers 4``
    Fan a scenario × routing × replica-budget grid across worker processes
    (deterministic per-cell seeding: the merged table is identical for any
    worker count) and print the merged results.

``python -m repro experiments fig13 fig15``
    Shortcut for ``python -m repro.experiments``.

``simulate`` and ``sweep`` declare their shared run flags once
(:func:`_add_run_flags`), the run options they share are validated once
(:func:`~repro.serving.engine.check_run_options`), and :func:`main` turns
every rejected input into a one-line exit.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from repro._version import __version__
from repro.analysis.cost import servers_required
from repro.analysis.memory import memory_breakdown
from repro.analysis.report import format_table
from repro.cluster.manifests import render_manifests
from repro.core.baseline import ModelWisePlanner
from repro.core.planner import ElasticRecPlanner
from repro.experiments.common import cluster_for_system
from repro.hardware.specs import ClusterSpec
from repro.model.configs import DLRMConfig, workload_presets
from repro.serving.engine import SimulationResult, TenantSpec
from repro.serving.faults import fault_scenario_names
from repro.serving.routing import routing_policy_names
from repro.serving.scenarios import build_scenario, scenario_names
from repro.serving.streaming import SpoolError
from repro.serving.workload import cost_model_names

__all__ = ["main", "build_parser"]


def _target(args: argparse.Namespace) -> tuple[DLRMConfig, ClusterSpec]:
    """The workload preset and the cluster (``--num-nodes`` applied) to plan for."""
    presets = workload_presets()
    if args.workload.upper() not in presets:
        known = ", ".join(sorted(presets))
        raise ValueError(f"unknown workload {args.workload!r}; choose from {known}")
    cluster = cluster_for_system(args.system)
    if args.num_nodes is not None:
        cluster = cluster.with_nodes(args.num_nodes)
    return presets[args.workload.upper()], cluster


def _number(cast: type, text: str):
    """``cast(text)``, or the argparse error naming the bad value."""
    try:
        return cast(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None


def _positive_int(text: str) -> int:
    """argparse type for integer options that must be at least 1."""
    value = _number(int, text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _positive_float(text: str) -> float:
    """argparse type for float options that must be finite and positive."""
    value = _number(float, text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be a finite positive number")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type for float options that must be finite and non-negative."""
    value = _number(float, text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError("must be non-negative and finite")
    return value


def _add_target_flags(sub: argparse.ArgumentParser, num_nodes: int | None) -> None:
    """The workload, cluster type and pool size every planning command takes."""
    sub.add_argument("workload", help="Table II workload name: RM1, RM2 or RM3")
    sub.add_argument(
        "--system", choices=("cpu", "cpu-gpu"), default="cpu", help="cluster type"
    )
    sub.add_argument(
        "--num-nodes",
        type=_positive_int,
        default=num_nodes,
        help=f"node pool size (default: {num_nodes or 'the cluster preset'})",
    )


def _add_run_flags(
    sub: argparse.ArgumentParser, *, num_nodes: int | None, duration_s: float
) -> None:
    """The run flags ``simulate`` and ``sweep`` share (a sweep applies them
    to every cell); only the pool size and duration defaults differ."""
    _add_target_flags(sub, num_nodes)
    sub.add_argument(
        "--cost-model",
        choices=tuple(cost_model_names()),
        default="homogeneous",
        help="per-query cost model (homogeneous reproduces the legacy engine exactly)",
    )
    sub.add_argument(
        "--max-batch",
        type=_positive_int,
        default=1,
        help="queries one replica may coalesce into a batch (default: 1, no batching)",
    )
    sub.add_argument(
        "--faults",
        default="none",
        help=(
            "fault scenario or fault script, one of: "
            f"{', '.join(fault_scenario_names())} — or e.g. "
            "'crash@120:policy=drop;drain@300+60:node=1' (default: none)"
        ),
    )
    sub.add_argument(
        "--cache-mb",
        type=_non_negative_float,
        default=0.0,
        help=(
            "per-replica embedding cache capacity in MB; needs --cost-model "
            "skewed (default: 0, no cache)"
        ),
    )
    sub.add_argument(
        "--drift",
        default="none",
        help=(
            "access-skew drift schedule, e.g. 'linear@60+300:to=0.2' "
            "(schedules: step, linear, oscillate); needs --cost-model skewed "
            "(default: none)"
        ),
    )
    sub.add_argument(
        "--replan",
        default="none",
        help=(
            "online re-planning trigger, e.g. 'sla@1.5:patience=3,cooldown=120' "
            "(default: none)"
        ),
    )
    sub.add_argument(
        "--slo",
        default="none",
        help=(
            "self-healing SLO watchdog, e.g. 'p95@1.5:p99=2.5,shed=0.1,retries=2' "
            "(default: none)"
        ),
    )
    sub.add_argument(
        "--base-qps", type=_positive_float, default=18.0, help="baseline query rate"
    )
    sub.add_argument(
        "--peak-qps", type=_positive_float, default=90.0, help="peak query rate"
    )
    sub.add_argument(
        "--duration-s",
        type=_positive_float,
        default=duration_s,
        help=f"simulated duration in seconds (default: {duration_s:g})",
    )
    sub.add_argument("--seed", type=int, default=0, help="base random seed")
    sub.add_argument(
        "--tenants",
        type=_positive_int,
        default=1,
        help="co-located tenants sharing the node pool (default: 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ElasticRec reproduction: deployment planning and figure regeneration.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    planning = []
    for command in ("plan", "manifests"):
        sub = subparsers.add_parser(
            command,
            help="plan a deployment" if command == "plan" else "emit Kubernetes manifests",
        )
        _add_target_flags(sub, None)
        sub.add_argument(
            "--target-qps", type=_positive_float, default=100.0, help="throughput target"
        )
        planning.append(sub)

    simulate = subparsers.add_parser(
        "simulate", help="serve a planned deployment under a traffic scenario"
    )
    _add_run_flags(simulate, num_nodes=None, duration_s=900.0)
    simulate.add_argument(
        "--scenario",
        default="paper",
        help=f"traffic scenario, one of: {', '.join(scenario_names())} (default: paper)",
    )
    simulate.add_argument(
        "--routing",
        default="least-work",
        help=(
            "replica routing policy, one of: "
            f"{', '.join(routing_policy_names())} (default: least-work)"
        ),
    )
    simulate.add_argument(
        "--strategy",
        choices=("elasticrec", "model-wise", "both"),
        default="elasticrec",
        help="deployment strategy to simulate",
    )
    simulate.add_argument(
        "--shard-workers",
        type=_positive_int,
        default=1,
        help=(
            "worker processes to shard the run across, one disjoint tenant "
            "subset each (bit-exact with a single process; default: 1)"
        ),
    )
    simulate.add_argument(
        "--stream-dir",
        default=None,
        metavar="PATH",
        help=(
            "stream per-interval series and latency samples to an on-disk "
            "spool at PATH instead of holding whole-run arrays in memory "
            "(PATH must be new or empty)"
        ),
    )
    simulate.add_argument(
        "--max-replicas",
        type=_positive_int,
        default=256,
        help="per-tenant replica budget (default: 256)",
    )
    simulate.add_argument(
        "--profile",
        action="store_true",
        help="run the simulation under cProfile and print the top-20 cumulative hot spots",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="fan a scenario x routing x replica-budget grid over worker processes",
    )
    _add_run_flags(sweep, num_nodes=8, duration_s=600.0)
    sweep.add_argument(
        "--num-tables", type=_positive_int, default=4, help="scale the workload's table count"
    )
    sweep.add_argument(
        "--scenarios",
        default="all",
        help=f"comma-separated scenarios or 'all' ({', '.join(scenario_names())})",
    )
    sweep.add_argument(
        "--routings",
        default="all",
        help=f"comma-separated routing policies or 'all' ({', '.join(routing_policy_names())})",
    )
    sweep.add_argument(
        "--replica-budgets",
        default="4,16,64",
        help="comma-separated per-deployment replica caps",
    )
    sweep.add_argument("--workers", type=_positive_int, default=1, help="worker processes")

    for sub in (*planning, simulate):
        sub.add_argument(
            "--num-shards", type=_positive_int, default=None, help="force a shard count per table"
        )

    experiments = subparsers.add_parser("experiments", help="regenerate paper figures")
    experiments.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    experiments.add_argument("--list", action="store_true", help="list experiment ids")
    return parser


def _command_plan(args: argparse.Namespace) -> int:
    workload, cluster = _target(args)
    elastic = ElasticRecPlanner(cluster).plan(
        workload, args.target_qps, num_shards=args.num_shards
    )
    baseline = ModelWisePlanner(cluster).plan(workload, args.target_qps)

    rows = []
    for deployment in elastic.deployments:
        rows.append(
            {
                "deployment": deployment.name,
                "role": deployment.role,
                "replicas": deployment.replicas,
                "per_replica_gb": deployment.per_replica_memory_bytes / 1e9,
                "per_replica_qps": deployment.per_replica_qps,
                "cores": deployment.cores,
                "gpus": deployment.gpus,
            }
        )
    print(format_table(rows, title=f"ElasticRec deployments for {workload.name} "
                                   f"({args.target_qps:.0f} QPS on {cluster.name})"))
    print()
    comparison = []
    for plan in (baseline, elastic):
        breakdown = memory_breakdown(plan)
        comparison.append(
            {
                "strategy": plan.strategy,
                "memory_gb": breakdown.total_gb,
                "replicas": plan.total_replicas,
                "servers": servers_required(plan),
            }
        )
    print(format_table(comparison, title="Comparison against the model-wise baseline"))
    reduction = baseline.total_memory_gb / elastic.total_memory_gb
    print(f"\nmemory reduction: {reduction:.1f}x")
    return 0


def _command_manifests(args: argparse.Namespace) -> int:
    workload, cluster = _target(args)
    plan = ElasticRecPlanner(cluster).plan(
        workload, args.target_qps, num_shards=args.num_shards
    )
    sys.stdout.write(render_manifests(plan))
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from repro.serving.sharding import run_sharded

    workers = args.shard_workers
    if workers > args.tenants:
        print(
            f"note: --shard-workers {workers} exceeds the {args.tenants} "
            f"available tenant(s); running {args.tenants} worker(s)",
            file=sys.stderr,
        )
        workers = args.tenants
    if args.profile and workers > 1:
        raise ValueError("--profile needs a single-process run (--shard-workers 1)")
    workload, cluster = _target(args)
    pattern = build_scenario(
        args.scenario, args.base_qps, args.peak_qps, args.duration_s, seed=args.seed
    )
    planners = {
        "elasticrec": lambda: ElasticRecPlanner(cluster).plan(
            workload, args.base_qps, num_shards=args.num_shards
        ),
        "model-wise": lambda: ModelWisePlanner(cluster).plan(workload, args.base_qps),
    }
    strategies = list(planners) if args.strategy == "both" else [args.strategy]
    # Every strategy's tenants are built (and so validated) before any runs.
    runs = [(s, _tenant_specs(args, planners[s](), pattern)) for s in strategies]
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    rows = []
    for strategy, tenants in runs:
        stream_dir = args.stream_dir
        if stream_dir is not None and len(runs) > 1:
            stream_dir = f"{stream_dir}/{strategy}"
        run = functools.partial(
            run_sharded, tenants, cluster, workers=workers, stream_dir=stream_dir
        )
        fleet = profiler.runcall(run) if profiler is not None else run()
        for name, result in fleet.tenants.items():
            rows.append(_result_row(strategy, name if args.tenants > 1 else None, result))
    print(
        format_table(
            rows,
            title=(
                f"{workload.name} under {args.scenario!r} traffic "
                f"({args.base_qps:.0f}-{args.peak_qps:.0f} QPS, "
                f"{args.duration_s:.0f}s on {cluster.name})"
            ),
        )
    )
    # Wall time is measurement, not simulation output: a plain in-process
    # run keeps its stdout deterministic.
    stats = fleet.sharding_stats
    if stats["workers"] > 1 or stats["streamed"]:
        line = (
            f"\nsharding: {stats['workers']} worker(s), wall {stats['wall_s']:.2f}s, "
            f"peak worker RSS {max(stats['peak_rss_mb']):.0f} MB"
        )
        if stats["streamed"]:
            line += f", spool at {args.stream_dir}"
        print(line)
    if profiler is not None:
        import pstats

        print("\ntop-20 hot spots by cumulative time:")
        pstats.Stats(profiler, stream=sys.stdout).sort_stats("cumulative").print_stats(20)
    return 0


def _tenant_specs(args: argparse.Namespace, plan, pattern) -> list[TenantSpec]:
    """``simulate``'s tenants.

    A lone tenant is seeded with ``--seed`` itself, so streaming or sharding
    it changes nothing; only a fleet fans ``--seed`` out into one
    independent seed per tenant.
    """
    from repro.parallel import spawn_seeds

    seeds = spawn_seeds(args.seed, args.tenants) if args.tenants > 1 else [args.seed]
    return [
        TenantSpec(
            name=f"tenant-{index:02d}" if args.tenants > 1 else plan.name,
            plan=plan,
            pattern=pattern,
            routing=args.routing,
            seed=seed,
            max_replicas=args.max_replicas,
            cost_model=args.cost_model,
            max_batch=args.max_batch,
            faults=args.faults,
            cache_mb=args.cache_mb,
            drift=args.drift,
            replan=args.replan,
            slo=args.slo,
        )
        for index, seed in enumerate(seeds)
    ]


def _result_row(strategy: str, tenant: str | None, result: SimulationResult) -> dict:
    """One row of ``simulate``'s table; ``tenant`` names a fleet member."""
    summary = result.summary()
    row = {"strategy": strategy}
    if tenant is not None:
        row["tenant"] = tenant
    row.update(
        routing=result.routing,
        cost_model=result.cost_model,
        peak_memory_gb=summary["peak_memory_gb"],
        mean_latency_ms=summary["mean_latency_ms"],
        p95_latency_ms=summary["p95_latency_ms"],
        sla_violations_pct=100.0 * summary["sla_violation_fraction"],
        availability=result.availability_fraction,
        queries=result.tracker.num_samples,
    )
    if result.replan != "none":
        row["replans"] = result.replans_applied
    if result.slo != "none":
        row["timeouts"] = result.timeout_queries
        row["degraded"] = result.degraded_queries
    return row


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweeps import SweepConfig, run_sweep

    try:
        budgets = [int(b) for b in args.replica_budgets.split(",") if b.strip()]
    except ValueError:
        budgets = []
    if not budgets or any(b <= 0 for b in budgets):
        raise ValueError("--replica-budgets needs a comma-separated list of positive ints")
    config = SweepConfig(
        workload=args.workload.upper(),
        system=args.system,
        num_nodes=args.num_nodes,
        num_tables=args.num_tables,
        tenants=args.tenants,
        base_qps=args.base_qps,
        peak_qps=args.peak_qps,
        duration_s=args.duration_s,
        seed=args.seed,
        cost_model=args.cost_model,
        max_batch=args.max_batch,
        faults=args.faults,
        cache_mb=args.cache_mb,
        drift=args.drift,
        replan=args.replan,
        slo=args.slo,
    )
    result = run_sweep(
        config,
        scenarios=args.scenarios,
        routings=args.routings,
        replica_budgets=budgets,
        workers=args.workers,
    )
    print(result.to_table())
    summary = result.summary()
    summary_text = ", ".join(
        f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in summary.items()
    )
    print(f"\nsummary: {summary_text}")
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    argv = list(args.ids)
    if args.list:
        argv.append("--list")
    return experiments_main(argv)


_COMMANDS = {
    "plan": _command_plan,
    "manifests": _command_manifests,
    "simulate": _command_simulate,
    "sweep": _command_sweep,
    "experiments": _command_experiments,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    The one place a rejected input becomes an exit: a :class:`ValueError`
    (a malformed ``--faults``/``--drift``/``--replan``/``--slo`` spec's
    :class:`~repro.serving.spec.SpecError` among them), a
    :class:`~repro.serving.streaming.SpoolError` or an :class:`OSError` ends
    the run with its one-line message instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, SpoolError, OSError) as error:
        raise SystemExit(str(error)) from None
