"""Command-line interface: plan deployments and export manifests.

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

``python -m repro sweep RM1 --scenarios constant,flash-crowd --routings all --workers 4``
    Fan a scenario × routing × replica-budget grid across worker processes
    (deterministic per-cell seeding: the merged table is identical for any
    worker count) and print the merged results.

``python -m repro experiments fig13 fig15``
    Shortcut for ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro._version import __version__
from repro.analysis.cost import servers_required
from repro.analysis.memory import memory_breakdown
from repro.analysis.report import format_table
from repro.cluster.manifests import render_manifests
from repro.core.baseline import ModelWisePlanner
from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import ClusterSpec, cpu_gpu_cluster, cpu_only_cluster
from repro.model.configs import DLRMConfig, workload_presets
from repro.serving.engine import ServingEngine
from repro.serving.faults import fault_scenario_names
from repro.serving.routing import resolve_routing_names, routing_policy_names
from repro.serving.scenarios import build_scenario, resolve_scenario_names, scenario_names
from repro.serving.spec import SpecError, is_off
from repro.serving.streaming import SpoolError
from repro.serving.workload import cost_model_names

__all__ = ["main", "build_parser"]


def _resolve_workload(name: str) -> DLRMConfig:
    presets = workload_presets()
    try:
        return presets[name.upper()]
    except KeyError:
        known = ", ".join(sorted(presets))
        raise SystemExit(f"unknown workload {name!r}; choose from {known}") from None


def _check_names(scenarios: str, routings: str, seed: int) -> tuple[list[str], list[str]]:
    """Validate scenario/routing selections and the seed.

    Exits with a one-line hint (not a traceback) on an unknown name or a
    negative seed.
    """
    if seed < 0:
        raise SystemExit("seed must be non-negative")
    try:
        return resolve_scenario_names(scenarios), resolve_routing_names(routings)
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _check_cache(cache_mb: float, cost_model: str) -> None:
    """Exit with a one-line hint on an unusable --cache-mb setting.

    The engine raises the same complaint, but worker processes would bury it
    in a traceback; the cache needs per-query gather splits, which only the
    skewed cost model provides.
    """
    if not 0 <= cache_mb < math.inf:
        raise SystemExit("--cache-mb must be non-negative and finite")
    if cache_mb > 0 and cost_model == "homogeneous":
        raise SystemExit(
            "--cache-mb needs per-query gather splits; use --cost-model skewed"
        )


def _check_drift(spec: str, cost_model: str) -> None:
    """Exit with a one-line hint on a --drift spec the cost model cannot serve.

    Drift re-prices each query's gather set against the distribution at its
    arrival time, which only the skewed cost model samples per query.
    """
    if not is_off(spec) and cost_model == "homogeneous":
        raise SystemExit(
            "--drift needs per-query gather sampling; use --cost-model skewed"
        )


def _resolve_cluster(system: str, num_nodes: int | None) -> ClusterSpec:
    if system == "cpu":
        cluster = cpu_only_cluster()
    elif system == "cpu-gpu":
        cluster = cpu_gpu_cluster()
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown system {system!r}")
    if num_nodes is not None:
        cluster = cluster.with_nodes(num_nodes)
    return cluster


def _positive_int(text: str) -> int:
    """argparse type for integer options that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _positive_float(text: str) -> float:
    """argparse type for float options that must be finite and positive."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be a finite positive number")
    return value


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

    for command in ("plan", "manifests"):
        sub = subparsers.add_parser(
            command,
            help="plan a deployment" if command == "plan" else "emit Kubernetes manifests",
        )
        sub.add_argument("workload", help="Table II workload name: RM1, RM2 or RM3")
        sub.add_argument(
            "--system", choices=("cpu", "cpu-gpu"), default="cpu", help="cluster type"
        )
        sub.add_argument(
            "--target-qps", type=_positive_float, default=100.0, help="throughput target"
        )
        sub.add_argument(
            "--num-nodes", type=_positive_int, default=None, help="override fleet size"
        )
        sub.add_argument(
            "--num-shards", type=_positive_int, default=None, help="force a shard count per table"
        )

    simulate = subparsers.add_parser(
        "simulate", help="serve a planned deployment under a traffic scenario"
    )
    simulate.add_argument("workload", help="Table II workload name: RM1, RM2 or RM3")
    simulate.add_argument(
        "--system", choices=("cpu", "cpu-gpu"), default="cpu", help="cluster type"
    )
    simulate.add_argument(
        "--num-nodes", type=_positive_int, default=None, help="override fleet size"
    )
    simulate.add_argument(
        "--num-shards", type=_positive_int, default=None, help="force a shard count per table"
    )
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
        "--cost-model",
        choices=tuple(cost_model_names()),
        default="homogeneous",
        help="per-query cost model (homogeneous reproduces the legacy engine exactly)",
    )
    simulate.add_argument(
        "--max-batch",
        type=_positive_int,
        default=1,
        help="queries one replica may coalesce into a batch (default: 1, no batching)",
    )
    simulate.add_argument(
        "--faults",
        default="none",
        help=(
            "fault scenario or fault script, one of: "
            f"{', '.join(fault_scenario_names())} — or e.g. "
            "'crash@120:policy=drop;drain@300+60:node=1' (default: none)"
        ),
    )
    simulate.add_argument(
        "--cache-mb",
        type=float,
        default=0.0,
        help=(
            "per-replica embedding cache capacity in MB; needs --cost-model "
            "skewed (default: 0, no cache)"
        ),
    )
    simulate.add_argument(
        "--drift",
        default="none",
        help=(
            "access-skew drift schedule, e.g. 'linear@60+300:to=0.2' "
            "(schedules: step, linear, oscillate); needs --cost-model skewed "
            "(default: none)"
        ),
    )
    simulate.add_argument(
        "--replan",
        default="none",
        help=(
            "online re-planning trigger, e.g. 'sla@1.5:patience=3,cooldown=120' "
            "(default: none)"
        ),
    )
    simulate.add_argument(
        "--slo",
        default="none",
        help=(
            "self-healing SLO watchdog, e.g. 'p95@1.5:p99=2.5,shed=0.1,retries=2' "
            "(default: none)"
        ),
    )
    simulate.add_argument(
        "--base-qps", type=_positive_float, default=18.0, help="baseline query rate"
    )
    simulate.add_argument(
        "--peak-qps", type=_positive_float, default=90.0, help="peak query rate"
    )
    simulate.add_argument(
        "--duration-s",
        type=_positive_float,
        default=900.0,
        help="simulated duration in seconds",
    )
    simulate.add_argument("--seed", type=int, default=0, help="random seed")
    simulate.add_argument(
        "--tenants",
        type=_positive_int,
        default=1,
        help=(
            "co-located tenants sharing the node pool (seeds fan out "
            "deterministically from --seed; default: 1)"
        ),
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
    sweep.add_argument("workload", help="Table II workload name: RM1, RM2 or RM3")
    sweep.add_argument(
        "--system", choices=("cpu", "cpu-gpu"), default="cpu", help="cluster type"
    )
    sweep.add_argument(
        "--num-nodes", type=_positive_int, default=8, help="shared node pool size"
    )
    sweep.add_argument(
        "--num-tables", type=_positive_int, default=4, help="scale the workload's table count"
    )
    sweep.add_argument(
        "--tenants", type=int, default=1, help="co-located tenants per grid cell"
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
    sweep.add_argument(
        "--cost-model",
        choices=tuple(cost_model_names()),
        default="homogeneous",
        help="per-query cost model applied to every cell",
    )
    sweep.add_argument(
        "--max-batch",
        type=_positive_int,
        default=1,
        help="per-replica batch cap applied to every cell (default: 1)",
    )
    sweep.add_argument(
        "--faults",
        default="none",
        help=(
            "fault scenario or fault script applied to every cell "
            f"({', '.join(fault_scenario_names())} or a script; default: none)"
        ),
    )
    sweep.add_argument(
        "--cache-mb",
        type=float,
        default=0.0,
        help=(
            "per-replica embedding cache capacity in MB applied to every "
            "cell; needs --cost-model skewed (default: 0, no cache)"
        ),
    )
    sweep.add_argument(
        "--drift",
        default="none",
        help=(
            "access-skew drift schedule applied to every cell, e.g. "
            "'linear@60+300:to=0.2'; needs --cost-model skewed (default: none)"
        ),
    )
    sweep.add_argument(
        "--replan",
        default="none",
        help=(
            "online re-planning trigger applied to every cell, e.g. "
            "'sla@1.5:patience=3' (default: none)"
        ),
    )
    sweep.add_argument(
        "--slo",
        default="none",
        help=(
            "self-healing SLO watchdog applied to every cell, e.g. "
            "'p95@1.5:shed=0.1' (default: none)"
        ),
    )
    sweep.add_argument("--workers", type=int, default=1, help="worker processes")
    sweep.add_argument(
        "--base-qps", type=_positive_float, default=18.0, help="baseline query rate"
    )
    sweep.add_argument(
        "--peak-qps", type=_positive_float, default=90.0, help="peak query rate"
    )
    sweep.add_argument(
        "--duration-s", type=_positive_float, default=600.0, help="simulated duration per cell"
    )
    sweep.add_argument("--seed", type=int, default=0, help="base random seed")

    experiments = subparsers.add_parser("experiments", help="regenerate paper figures")
    experiments.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    experiments.add_argument("--list", action="store_true", help="list experiment ids")
    return parser


def _command_plan(args: argparse.Namespace) -> int:
    workload = _resolve_workload(args.workload)
    cluster = _resolve_cluster(args.system, args.num_nodes)
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
    workload = _resolve_workload(args.workload)
    cluster = _resolve_cluster(args.system, args.num_nodes)
    plan = ElasticRecPlanner(cluster).plan(
        workload, args.target_qps, num_shards=args.num_shards
    )
    sys.stdout.write(render_manifests(plan))
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    _check_names(args.scenario, args.routing, args.seed)
    _check_cache(args.cache_mb, args.cost_model)
    _check_drift(args.drift, args.cost_model)
    workload = _resolve_workload(args.workload)
    cluster = _resolve_cluster(args.system, args.num_nodes)
    try:
        pattern = build_scenario(
            args.scenario, args.base_qps, args.peak_qps, args.duration_s, seed=args.seed
        )
    except ValueError as error:
        raise SystemExit(f"cannot build scenario {args.scenario!r}: {error}") from None
    planners = {
        "elasticrec": lambda: ElasticRecPlanner(cluster).plan(
            workload, args.base_qps, num_shards=args.num_shards
        ),
        "model-wise": lambda: ModelWisePlanner(cluster).plan(workload, args.base_qps),
    }
    strategies = list(planners) if args.strategy == "both" else [args.strategy]
    if args.tenants > 1 or args.shard_workers > 1 or args.stream_dir is not None:
        return _simulate_sharded(args, workload, cluster, planners, strategies, pattern)
    profiler = None
    if getattr(args, "profile", False):
        import cProfile

        profiler = cProfile.Profile()
    rows = []
    for strategy in strategies:
        engine = ServingEngine(
            planners[strategy](),
            routing=args.routing,
            seed=args.seed,
            cost_model=args.cost_model,
            max_batch=args.max_batch,
            faults=args.faults,
            cache_mb=args.cache_mb,
            drift=args.drift,
            replan=args.replan,
            slo=args.slo,
        )
        if profiler is not None:
            result = profiler.runcall(engine.run, pattern)
        else:
            result = engine.run(pattern)
        summary = result.summary()
        row = {
            "strategy": strategy,
            "routing": result.routing,
            "cost_model": result.cost_model,
            "peak_memory_gb": summary["peak_memory_gb"],
            "mean_latency_ms": summary["mean_latency_ms"],
            "p95_latency_ms": summary["p95_latency_ms"],
            "sla_violations_pct": 100.0 * summary["sla_violation_fraction"],
            "availability": result.availability_fraction,
            "queries": summary["total_queries"],
        }
        if result.replan != "none":
            row["replans"] = result.replans_applied
        if result.slo != "none":
            row["timeouts"] = result.timeout_queries
            row["degraded"] = result.degraded_queries
        rows.append(row)
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
    if profiler is not None:
        import pstats

        print("\ntop-20 hot spots by cumulative time:")
        pstats.Stats(profiler, stream=sys.stdout).sort_stats("cumulative").print_stats(20)
    return 0


def _simulate_sharded(
    args: argparse.Namespace,
    workload: DLRMConfig,
    cluster: ClusterSpec,
    planners: dict,
    strategies: list[str],
    pattern,
) -> int:
    """The multi-tenant / sharded / streamed variant of ``simulate``."""
    from repro.parallel import spawn_seeds
    from repro.serving.engine import TenantSpec
    from repro.serving.sharding import run_sharded

    if getattr(args, "profile", False):
        raise SystemExit("--profile needs a single-process, single-tenant run")
    workers = args.shard_workers
    if workers > args.tenants:
        print(
            f"note: --shard-workers {workers} exceeds the {args.tenants} "
            f"available tenant(s); running {args.tenants} worker(s)",
            file=sys.stderr,
        )
        workers = args.tenants
    seeds = spawn_seeds(args.seed, args.tenants)
    rows = []
    stats = None
    for strategy in strategies:
        plan = planners[strategy]()
        tenants = [
            TenantSpec(
                name=f"tenant-{index:02d}" if args.tenants > 1 else plan.name,
                plan=plan,
                pattern=pattern,
                routing=args.routing,
                seed=seeds[index],
                max_replicas=args.max_replicas,
                cost_model=args.cost_model,
                max_batch=args.max_batch,
                faults=args.faults,
                cache_mb=args.cache_mb,
                drift=args.drift,
                replan=args.replan,
                slo=args.slo,
            )
            for index in range(args.tenants)
        ]
        stream_dir = None
        if args.stream_dir is not None:
            stream_dir = args.stream_dir
            if len(strategies) > 1:
                stream_dir = f"{args.stream_dir}/{strategy}"
        try:
            result = run_sharded(
                tenants, cluster_spec=cluster, workers=workers, stream_dir=stream_dir
            )
        except (ValueError, SpoolError, OSError) as error:
            raise SystemExit(str(error)) from None
        stats = result.sharding_stats
        for name, tenant_result in result.tenants.items():
            summary = tenant_result.summary()
            rows.append(
                {
                    "strategy": strategy,
                    "tenant": name,
                    "routing": tenant_result.routing,
                    "peak_memory_gb": summary["peak_memory_gb"],
                    "mean_latency_ms": summary["mean_latency_ms"],
                    "p95_latency_ms": summary["p95_latency_ms"],
                    "sla_violations_pct": 100.0 * summary["sla_violation_fraction"],
                    "queries": summary["total_queries"],
                }
            )
    print(
        format_table(
            rows,
            title=(
                f"{workload.name} under {args.scenario!r} traffic "
                f"({args.tenants} tenant(s), {workers} worker(s) on {cluster.name})"
            ),
        )
    )
    if stats is not None:
        rss = max(stats["peak_rss_mb"]) if stats["peak_rss_mb"] else 0.0
        line = (
            f"\nsharding: {stats['workers']} worker(s), wall {stats['wall_s']:.2f}s, "
            f"peak worker RSS {rss:.0f} MB"
        )
        if stats["streamed"]:
            line += f", spool at {args.stream_dir}"
        print(line)
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweeps import SweepConfig, run_sweep

    _resolve_workload(args.workload)
    scenarios, routings = _check_names(args.scenarios, args.routings, args.seed)
    _check_cache(args.cache_mb, args.cost_model)
    _check_drift(args.drift, args.cost_model)
    try:
        budgets = [int(b) for b in args.replica_budgets.split(",") if b.strip()]
    except ValueError:
        budgets = []
    if not budgets or any(b <= 0 for b in budgets):
        raise SystemExit("--replica-budgets needs a comma-separated list of positive ints")
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
        scenarios=scenarios,
        routings=routings,
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

    A malformed ``--faults``, ``--drift``, ``--replan`` or ``--slo`` spec
    raises :class:`~repro.serving.spec.SpecError` where the engine, tenant
    or sweep config is built; it exits here with its one-line message.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SpecError as error:
        raise SystemExit(str(error)) from None
