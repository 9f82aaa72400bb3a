#!/usr/bin/env python
"""CI smoke for the sharded/streamed run executor: digests plus a memory ceiling.

Two checks, both against the contracts :mod:`repro.serving.sharding`
documents:

1. **Digest equivalence** — a 2-worker streamed run must reproduce the
   serial in-process run tenant for tenant, digest for digest.  The
   per-tenant digests from both runs land in the JSON artifact so a CI
   failure shows *which* tenant diverged, and the spool's manifests are
   left on disk for upload.

2. **Memory-boundedness** — a streamed 24-hour run must not accumulate
   per-query samples, tenant series or cluster-probe points while it
   serves.  One-worker in-process runs of both horizons are traced by
   ``tracemalloc`` (live allocations only, so the interpreter's baseline
   and the allocator's slack, which made a peak-RSS ratio read 1.92-2.05x
   on one host, drop out), spooling with small thresholds so both horizons
   spill and flush many times.  Two gates:

   * *serving*: the memory the 24-hour run gains past its setup (the
     traced size at the first event) may be at most ``--ceiling-ratio``
     (default 2.0) times the 1-hour run's, or the 1-hour run's plus 1 MB
     if that is more, so that a one-off interpreter reallocation cannot
     fail it;
   * *whole run*: the traced peak, setup included, may grow at most
     16 B per extra expected arrival.  Every tenant's whole-run arrival
     vector is drawn up front (8 B per arrival), so the peak cannot be
     horizon-independent; the bound still fails any new whole-run column.

   Each horizon's 2-worker peak RSS is still measured (in a fresh child
   process, since ``ru_maxrss`` is a lifetime high-water mark) and
   recorded, and an absolute ``--rss-ceiling-mb`` backstop catches a
   runaway allocation that scales both horizons equally.

Usage (the slow CI job)::

    PYTHONPATH=src python scripts/sharded_smoke.py \
        --spool-dir smoke-spool --output sharded_smoke.json

``--quick`` shrinks the horizons (10 min vs 2 h) for local iteration; the
gates are the same.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.planner import ElasticRecPlanner  # noqa: E402
from repro.hardware.specs import cpu_only_cluster  # noqa: E402
from repro.model.configs import microbenchmark  # noqa: E402
from repro.parallel import peak_rss_mb, pool_context  # noqa: E402
from repro.serving.engine import MultiTenantEngine, TenantSpec  # noqa: E402
from repro.serving.scenarios import build_scenario  # noqa: E402
from repro.serving.sharding import run_sharded  # noqa: E402
from repro.serving.streaming import StreamConfig  # noqa: E402

NUM_TENANTS = 4
#: Spool thresholds of the traced runs: below the shortest (``--quick``)
#: horizon's ~2,400 samples and 40 sample intervals per tenant, so every
#: horizon runs at the spool's bound.  At the defaults (262,144 samples)
#: the 1-hour run never spills, and the ratio would compare a run below the
#: bound with one held at it.
TRACED_SPILL_THRESHOLD = 1 << 10
TRACED_FLUSH_SERIES_EVERY = 16
#: Traced growth the long horizon may add over the short one's whatever the
#: ratio: one interpreter reallocation (an intern-table rebuild read 0.94 MB)
#: must not fail the gate, a leak of a cluster-probe point per tick
#: (+1.3 MB over a day) must.
GROWTH_ALLOWANCE_MB = 1.0
#: Traced-peak bytes per extra expected arrival, long horizon over short:
#: the pre-drawn arrival vector (8 B) and its draw's transient copies read
#: 11.9 B; one more whole-run float64 column reads 18-20 B.
PEAK_BYTES_PER_ARRIVAL = 16.0


def _tenants(duration_s: float) -> tuple[list[TenantSpec], object]:
    """The smoke fleet: four capped tenants on an uncontended 16-node pool."""
    cluster = cpu_only_cluster(num_nodes=16)
    plan = ElasticRecPlanner(cluster).plan(microbenchmark(num_tables=2), target_qps=30.0)
    tenants = [
        TenantSpec(
            name=f"user-{index:02d}",
            plan=plan,
            pattern=build_scenario("diurnal", 2.0, 6.0, duration_s),
            seed=index,
            max_replicas=4,
            faults="crash-storm" if index == 1 else None,
        )
        for index in range(NUM_TENANTS)
    ]
    return tenants, cluster


def check_digests(spool_dir: Path, duration_s: float) -> dict:
    """Serial vs 2-worker streamed: every tenant digest must match."""
    tenants, cluster = _tenants(duration_s)
    serial = MultiTenantEngine(tenants, cluster_spec=cluster).run()
    sharded = run_sharded(tenants, cluster, workers=2, stream_dir=spool_dir)
    record = {
        "duration_s": duration_s,
        "queries": serial.total_queries,
        "workers": sharded.sharding_stats["workers"],
        "worker_peak_rss_mb": sharded.sharding_stats["peak_rss_mb"],
        "tenants": {},
    }
    mismatched = []
    for name, expected in serial.tenants.items():
        serial_digest = expected.digest()
        sharded_digest = sharded.tenants[name].digest()
        record["tenants"][name] = {
            "serial_digest": serial_digest,
            "sharded_digest": sharded_digest,
            "match": serial_digest == sharded_digest,
        }
        if serial_digest != sharded_digest:
            mismatched.append(name)
    if mismatched:
        raise SystemExit(f"sharded digests diverged from serial for {mismatched}")
    return record


def _horizon_child(conn, duration_s: float, spool_dir: str) -> None:
    """Run one streamed horizon and report engine-worker and merge peak RSS.

    Both are recorded and policed only by the absolute ceiling; the horizon
    gates read the traced memory of :func:`traced_run` instead.  The worker's
    ``ru_maxrss`` comes through ``sharding_stats``; this process additionally
    merges the spool back into a full in-memory result, which is linear in
    the run length by definition (it *is* the whole-run arrays).
    """
    try:
        tenants, cluster = _tenants(duration_s)
        started = time.perf_counter()
        result = run_sharded(tenants, cluster, workers=2, stream_dir=spool_dir)
        conn.send(
            (
                "ok",
                {
                    "duration_s": duration_s,
                    "queries": result.total_queries,
                    "wall_s": round(time.perf_counter() - started, 3),
                    "peak_rss_mb": round(max(result.sharding_stats["peak_rss_mb"]), 1),
                    "merge_peak_rss_mb": round(peak_rss_mb(), 1),
                },
            )
        )
    except BaseException as error:  # noqa: BLE001 - report, do not hang the pipe
        conn.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        conn.close()


def measure_horizon(duration_s: float, spool_dir: Path) -> dict:
    context = pool_context()
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_horizon_child, args=(sender, duration_s, str(spool_dir)))
    child.start()
    sender.close()
    try:
        status, payload = receiver.recv()
    except EOFError:
        child.join()
        raise SystemExit(f"{duration_s:.0f}s horizon: worker died without reporting")
    child.join()
    if status != "ok":
        raise SystemExit(f"{duration_s:.0f}s horizon failed: {payload}")
    return payload


def traced_run(duration_s: float, spool_dir: Path) -> dict:
    """Traced memory of a one-worker, in-process streamed run.

    ``setup_mb`` is the traced size at the first event (what the run holds
    before it serves); the peak is read there and reset, so ``growth_mb``
    is the most the event loop held on top of setup at once, and
    ``peak_mb`` is the whole run's traced peak, setup transients included.
    """
    tenants, cluster = _tenants(duration_s)
    stream = StreamConfig(
        directory=spool_dir,
        spill_threshold=TRACED_SPILL_THRESHOLD,
        flush_series_every=TRACED_FLUSH_SERIES_EVERY,
    )
    engine = MultiTenantEngine(tenants, cluster_spec=cluster, namespace=True, stream=stream)
    setup = []

    def reset_at_first_event(now: float, kind: int) -> None:
        if not setup:
            setup.extend(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()

    started = time.perf_counter()
    tracemalloc.start()
    try:
        engine.run(on_event=reset_at_first_event)
        _, serving_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    setup_size, setup_peak = setup
    return {
        "duration_s": duration_s,
        "expected_arrivals": round(sum(t.pattern.expected_queries() for t in tenants)),
        "wall_s": round(time.perf_counter() - started, 3),
        "setup_mb": round(setup_size / 1e6, 3),
        "growth_mb": round((serving_peak - setup_size) / 1e6, 3),
        "peak_mb": round(max(setup_peak, serving_peak) / 1e6, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spool-dir", default="smoke-spool", metavar="PATH",
                        help="where the streamed runs spool (kept for artifact upload)")
    parser.add_argument("--output", default="sharded_smoke.json", metavar="PATH",
                        help="JSON record of digests and RSS measurements")
    parser.add_argument("--ceiling-ratio", type=float, default=2.0,
                        help="max allowed long-horizon/short-horizon traced-growth ratio")
    parser.add_argument("--rss-ceiling-mb", type=float, default=1024.0,
                        help="absolute peak-RSS backstop for any child (MB)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink horizons to 10min/2h for local iteration")
    args = parser.parse_args(argv)

    short_s, long_s = (600.0, 7200.0) if args.quick else (3600.0, 86400.0)
    spool_root = Path(args.spool_dir)
    if spool_root.exists():
        shutil.rmtree(spool_root)

    digest_record = check_digests(spool_root / "digest-check", duration_s=600.0)
    print(f"digest check: {len(digest_record['tenants'])} tenant(s) identical "
          f"across serial and 2-worker streamed runs "
          f"({digest_record['queries']} queries)")

    short = measure_horizon(short_s, spool_root / "horizon-short")
    print(f"{short_s:.0f}s horizon: {short['queries']} queries, "
          f"peak worker RSS {short['peak_rss_mb']:.0f} MB "
          f"(merge {short['merge_peak_rss_mb']:.0f} MB) in {short['wall_s']:.1f}s")
    long = measure_horizon(long_s, spool_root / "horizon-long")
    print(f"{long_s:.0f}s horizon: {long['queries']} queries, "
          f"peak worker RSS {long['peak_rss_mb']:.0f} MB "
          f"(merge {long['merge_peak_rss_mb']:.0f} MB) in {long['wall_s']:.1f}s")

    rss_ratio = long["peak_rss_mb"] / short["peak_rss_mb"]
    traced = {}
    for label, duration_s in (("short", short_s), ("long", long_s)):
        traced[label] = traced_run(duration_s, spool_root / f"traced-{label}")
        print(f"{duration_s:.0f}s horizon, one worker in process: setup "
              f"{traced[label]['setup_mb']:.2f} MB, grew {traced[label]['growth_mb']:.2f} MB "
              f"while serving, peak {traced[label]['peak_mb']:.2f} MB "
              f"(traced, {traced[label]['wall_s']:.1f}s)")
    short_traced, long_traced = traced["short"], traced["long"]
    ratio = long_traced["growth_mb"] / short_traced["growth_mb"]
    growth_limit_mb = max(
        args.ceiling_ratio * short_traced["growth_mb"],
        short_traced["growth_mb"] + GROWTH_ALLOWANCE_MB,
    )
    extra_arrivals = long_traced["expected_arrivals"] - short_traced["expected_arrivals"]
    peak_per_arrival = (long_traced["peak_mb"] - short_traced["peak_mb"]) * 1e6 / extra_arrivals
    setup_per_arrival = (long_traced["setup_mb"] - short_traced["setup_mb"]) * 1e6 / extra_arrivals
    record = {
        "schema": 3,
        "digest_check": digest_record,
        "short_horizon": short,
        "long_horizon": long,
        "rss_ratio": round(rss_ratio, 3),
        "traced_short": short_traced,
        "traced_long": long_traced,
        "traced_growth_ratio": round(ratio, 3),
        "traced_growth_limit_mb": round(growth_limit_mb, 3),
        "traced_peak_bytes_per_arrival": round(peak_per_arrival, 2),
        "traced_setup_bytes_per_arrival": round(setup_per_arrival, 2),
        "ceiling_ratio": args.ceiling_ratio,
        "growth_allowance_mb": GROWTH_ALLOWANCE_MB,
        "peak_bytes_per_arrival": PEAK_BYTES_PER_ARRIVAL,
        "rss_ceiling_mb": args.rss_ceiling_mb,
    }
    Path(args.output).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"traced growth ratio {ratio:.2f}x (limit {growth_limit_mb:.2f} MB), traced peak "
          f"{peak_per_arrival:.1f} B per extra arrival (setup {setup_per_arrival:.1f} B; "
          f"ceiling {PEAK_BYTES_PER_ARRIVAL:.0f} B), worker RSS ratio {rss_ratio:.2f}x "
          f"over a {long_s / short_s:.0f}x horizon; wrote {args.output}")

    worst = max(
        [
            short["peak_rss_mb"],
            long["peak_rss_mb"],
            short["merge_peak_rss_mb"],
            long["merge_peak_rss_mb"],
            *digest_record["worker_peak_rss_mb"],
        ]
    )
    if worst > args.rss_ceiling_mb:
        raise SystemExit(
            f"peak RSS {worst:.0f} MB exceeds the {args.rss_ceiling_mb:.0f} MB ceiling"
        )
    if long_traced["growth_mb"] > growth_limit_mb:
        raise SystemExit(
            f"streamed long-horizon run gained {long_traced['growth_mb']:.2f} MB of traced "
            f"memory while serving, {ratio:.2f}x the short horizon's (limit "
            f"{growth_limit_mb:.2f} MB): the run is not memory-bounded"
        )
    if peak_per_arrival > PEAK_BYTES_PER_ARRIVAL:
        raise SystemExit(
            f"traced peak grew {peak_per_arrival:.1f} B per extra arrival from the short "
            f"to the long horizon (ceiling {PEAK_BYTES_PER_ARRIVAL:.0f} B): the run "
            "holds more per-arrival state than its arrival vector"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
