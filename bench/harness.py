"""Benchmark harness: rounds in forked children, output checks, medians, compare.

Every timed round runs untraced in a fresh child forked from this process,
one at a time, so its ``peak_rss_mb`` is that round's own high-water mark and
no two rounds compete for the CPU.  A round builds its workload (timed as
``setup_s``, several times, keeping the last build), runs it (timed as the
round's wall), and returns its per-tenant outcomes for the checks.

Modes (see README.md):

* ``--workload W --seed N --seconds S --trace 0|1`` runs one workload and
  prints one JSON result line last: with ``--trace 0`` the end-to-end
  metrics of as many rounds as fit in ``S`` seconds, with ``--trace 1`` one
  untraced and one traced round and the per-layer metrics.
* no ``--workload``: every workload, ``--rounds`` timed rounds each,
  interleaved across workloads, then one traced round per workload.
* ``--compare A.json B.json`` gates B's medians against A's.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, check_conservation, outcome

from repro.parallel import peak_rss_mb
from repro.serving.engine import EventKind

ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Builds per timed round; ``setup_s`` is the median over all of them.
SETUP_REPEATS = 3
DEFAULT_ROUNDS = 5
#: A round counts as failed if any check fails; any rise in this share
#: between two reports is a regression.
FAILED_ROUND_FRAC = "failed_round_frac"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
def run_round(name: str, seed: int, *, trace: bool = False, scale: float = 1.0) -> dict:
    """Build and run one workload in this process; return the round record."""
    build, _ = WORKLOADS[name]
    tracer = Tracer() if trace else None
    setup_s = []
    # A traced round builds once, so each layer's calls belong to one run.
    with tracer.installed() if tracer else nullcontext():
        for _ in range(1 if trace else SETUP_REPEATS):
            job = None  # let the previous build go before timing the next
            start = time.perf_counter()
            job = build(seed, scale)
            setup_s.append(time.perf_counter() - start)
        workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
        try:
            start = time.perf_counter()
            results = job.run(workdir)
            run_s = time.perf_counter() - start
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "setup_s": setup_s,
        "run_s": run_s,
        "queries": sum(result.tracker.num_samples for result in results.values()),
        "peak_rss_mb": peak_rss_mb(),
        "tenants": {
            tenant: outcome(result, *job.traffic[tenant])
            for tenant, result in results.items()
        },
    }
    if tracer:
        record["trace"] = tracer.snapshot()
    return record


class RoundError(RuntimeError):
    """A round raised instead of returning a record."""


def in_child(fn, *args, **kwargs):
    """Call ``fn`` in a forked child and return its result.

    Fork rather than spawn: the child inherits the already-imported
    simulator, so no round pays for imports, and this process has started
    no threads.  The parent reads the child's whole reply, then waits for it
    to exit, so no child outlives the call.
    """
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(reader)
        try:
            reply = ("ok", fn(*args, **kwargs))
        except BaseException:  # noqa: BLE001 - the child must reach os._exit
            reply = ("error", traceback.format_exc())
        try:
            with os.fdopen(writer, "wb") as sink:
                pickle.dump(reply, sink)
        finally:
            os._exit(0)
    os.close(writer)
    with os.fdopen(reader, "rb") as source:
        data = source.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RoundError(f"round child ended with wait status {status} and no reply")
    kind, value = pickle.loads(data)  # written by our own child above
    if kind == "error":
        raise RoundError(value)
    return value


def forked_round(name: str, seed: int, trace: bool = False) -> dict:
    """One round in a fresh child; a round that raises becomes a failed record."""
    try:
        return in_child(run_round, name, seed, trace=trace)
    except RoundError as error:
        return {"workload": name, "seed": seed, "traced": trace, "error": str(error)}


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def round_failures(records: list[dict]) -> list[list[str]]:
    """Each round's failed checks: its own, plus any digest that differs
    from the first completed round's (traced rounds included, so tracing
    may change no behaviour)."""
    failures: list[list[str]] = []
    reference = None
    for index, record in enumerate(records):
        if "error" in record:
            failures.append([f"round {index} raised: {record['error'].strip()}"])
            continue
        _, regime = WORKLOADS[record["workload"]]
        found = check_conservation(record["tenants"]) + regime(record["tenants"])
        digests = {name: t["digest"] for name, t in record["tenants"].items()}
        if reference is None:
            reference = digests
        elif digests != reference:
            found.append("digests differ from the first round's")
        failures.append([f"round {index}: {message}" for message in found])
    return failures


def distribution(samples: list[float], unit: str) -> dict:
    if len(samples) > 1:
        p25, median, p75 = statistics.quantiles(samples, n=4)
    else:
        p25 = median = p75 = samples[0]
    return {
        "unit": unit,
        "median": median,
        "p25": p25,
        "p75": p75,
        "n": len(samples),
        "samples": samples,
    }


def end_to_end(timed: list[dict], attempted: int, failed: int) -> dict:
    """Medians over the timed rounds that completed."""
    metrics = {
        "queries_per_s": distribution([r["queries"] / r["run_s"] for r in timed], "1/s"),
        "setup_s": distribution([s for r in timed for s in r["setup_s"]], "s"),
        "peak_rss_mb": distribution([r["peak_rss_mb"] for r in timed], "MB"),
    }
    metrics[FAILED_ROUND_FRAC] = distribution([failed / attempted], "frac")
    return metrics


def per_layer(traced: dict, untraced_run_s: float) -> dict[str, dict]:
    """Every per-layer metric of one traced round, as ``{name: {value, unit}}``."""
    trace = traced["trace"]
    layers, events, counters = trace["layers"], trace["events"], trace["counters"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
        metrics[f"{layer}.calls"] = (layers[layer]["calls"], "count")
    for kind in EventKind:
        metrics[f"events.{kind.name}"] = (events[kind.name], "count")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    queries = traced["queries"]
    metrics["drive.queries_per_arrival_event"] = (
        ratio(layers["engine.serve_query"]["calls"], events["ARRIVAL"]),
        "queries/event",
    )
    metrics["routing.refresh_per_select"] = (
        ratio(layers["routing.pool_refresh"]["calls"], layers["routing.select_index"]["calls"]),
        "rebuilds/select",
    )
    metrics["cache.hit_frac"] = (
        ratio(counters.get("cache.hits", 0.0), counters.get("cache.gathers", 0.0)),
        "frac",
    )
    metrics["retry.per_query"] = (
        ratio(layers["engine.handle_retry"]["calls"], queries),
        "retries/query",
    )
    metrics["timeout.per_query"] = (
        ratio(layers["engine.handle_timeout"]["calls"], queries),
        "timeouts/query",
    )
    metrics["streaming.spool_mb"] = (counters.get("streaming.bytes", 0) / 1e6, "MB")
    metrics["trace.overhead_ratio"] = (traced["run_s"] / untraced_run_s, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def workload_report(name: str, records: list[dict]) -> dict:
    """Checks, end-to-end medians and (given a traced round) per-layer metrics."""
    failures = round_failures(records)
    attempted = len(records)
    failed = sum(1 for found in failures if found)
    done = [r for r in records if "error" not in r]
    timed = [r for r in done if not r["traced"]]
    report = {
        "attempted": attempted,
        "failed": failed,
        "failures": [message for found in failures for message in found],
    }
    if timed:
        report["end_to_end"] = end_to_end(timed, attempted, failed)
        first = timed[0]
        report["outcome"] = {
            "seed": first["seed"],
            "queries": first["queries"],
            "tenants": first["tenants"],
        }
    traced = [r for r in done if r["traced"]]
    if traced and timed:
        untraced_run_s = statistics.median(r["run_s"] for r in timed)
        report["per_layer"] = per_layer(traced[0], untraced_run_s)
        report["traced_run_s"] = traced[0]["run_s"]
    return report


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_report(name: str, report: dict) -> None:
    print(f"== {name}: {report['attempted']} rounds, {report['failed']} failed")
    for message in report["failures"]:
        print(f"   FAIL {message}")
    for metric, d in report.get("end_to_end", {}).items():
        print(
            f"   {metric:<20} {d['median']:>12.6g} {d['unit']:<6} "
            f"p25 {d['p25']:.6g}  p75 {d['p75']:.6g}  n={d['n']}"
        )
    out = report.get("outcome")
    if out:
        for tenant, t in out["tenants"].items():
            print(
                f"   tenant {tenant}: p95 {t['p95_ms']:.1f} ms (simulated), SLA "
                f"violations {t['sla_violation_frac']:.4f}, availability "
                f"{t['availability']:.4f}, hit rate {t['hit_rate']:.3f}, "
                f"digest {t['digest'][:12]}"
            )
    layer_metrics = report.get("per_layer")
    if layer_metrics:
        total = sum(layer_metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        print(f"   traced round: {report['traced_run_s']:.3f} s run, self time by layer:")
        ranked = sorted(LAYERS, key=lambda layer: -layer_metrics[f"{layer}.self_s"]["value"])
        for layer in ranked:
            self_s = layer_metrics[f"{layer}.self_s"]["value"]
            calls = layer_metrics[f"{layer}.calls"]["value"]
            share = self_s / total if total else 0.0
            print(f"     {layer:<32} {self_s:10.4f} s {share:6.1%} {calls:>10} calls")
        for metric, d in layer_metrics.items():
            if not metric.endswith((".self_s", ".calls")):
                print(f"     {metric:<32} {d['value']:.6g} {d['unit']}")


def result_line(report: dict, names: list[str]) -> str:
    """The driver's one-line result: exactly ``names`` from the report."""
    values = {**report.get("end_to_end", {}), **report.get("per_layer", {})}
    metrics = {}
    for name in names:
        d = values[name]
        metrics[name] = {"value": d["median"] if "median" in d else d["value"], "unit": d["unit"]}
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def compare(before: dict, after: dict, spec: dict) -> tuple[list[str], bool]:
    """Rows for every (workload, end-to-end metric) in both reports, and
    whether any median got worse than its bound allows."""
    gates = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    gates.append((FAILED_ROUND_FRAC, "lower", 0.0))
    rows, worse = [], False
    for name in before["workloads"]:
        if name not in after["workloads"]:
            rows.append(f"{name}: missing from the second report")
            worse = True
            continue
        a = before["workloads"][name].get("end_to_end", {})
        b = after["workloads"][name].get("end_to_end", {})
        for metric, better, bound in gates:
            if metric not in a or metric not in b:
                rows.append(f"{name:<16} {metric:<18} missing")
                worse = True
                continue
            ma, mb = a[metric]["median"], b[metric]["median"]
            change = (mb - ma) / ma if ma else (0.0 if mb == ma else float("inf"))
            loss = change if better == "lower" else -change
            iqr_a = (a[metric]["p75"] - a[metric]["p25"]) / ma if ma else 0.0
            iqr_b = (b[metric]["p75"] - b[metric]["p25"]) / mb if mb else 0.0
            if loss > bound:
                verdict = "WORSE"
                worse = True
            elif max(iqr_a, iqr_b) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append(
                f"{name:<16} {metric:<18} {ma:>12.6g} -> {mb:<12.6g} "
                f"{change:+8.2%}  IQR {iqr_a:6.2%} / {iqr_b:6.2%}  "
                f"bound {bound:.0%}  {verdict}"
            )
    return rows, worse


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def timed_rounds(name: str, seed: int, rounds: int | None, seconds: float | None) -> list[dict]:
    """``rounds`` rounds, or as many as fit in ``seconds`` (at least one)."""
    records: list[dict] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        records.append(forked_round(name, seed))
        now = time.perf_counter()
        if rounds is not None:
            if len(records) >= rounds:
                return records
        elif now - start + (now - round_start) > seconds:
            return records


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help=f"timed rounds per workload (default: {DEFAULT_ROUNDS})",
    )
    parser.add_argument(
        "--seconds", type=float, default=None, help="with --workload: time budget for rounds"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="with --workload: 1 runs one untraced and one traced round",
    )
    parser.add_argument("--output", type=Path, help="write the full report as JSON here")
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("A", "B"), help="gate report B against A"
    )
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.compare:
        before, after = (json.loads(path.read_text()) for path in args.compare)
        rows, worse = compare(before, after, spec)
        print("\n".join(rows))
        return 1 if worse else 0

    if args.workload:
        names = [args.workload]
        if args.trace:
            by_name = {args.workload: [forked_round(args.workload, args.seed)]}
        else:
            rounds = None if args.seconds else args.rounds or DEFAULT_ROUNDS
            by_name = {
                args.workload: timed_rounds(args.workload, args.seed, rounds, args.seconds)
            }
    else:
        names = list(WORKLOADS)
        by_name = {name: [] for name in names}
        # Interleaved, so drift on a shared host lands on every workload.
        for _ in range(args.rounds or DEFAULT_ROUNDS):
            for name in names:
                by_name[name].append(forked_round(name, args.seed))
    if not args.workload or args.trace:
        for name in names:
            by_name[name].append(forked_round(name, args.seed, trace=True))

    reports = {name: workload_report(name, by_name[name]) for name in names}
    for name in names:
        print_report(name, reports[name])
    if args.output:
        args.output.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "seed": args.seed,
                    "cpu_count": os.cpu_count(),
                    "python": sys.version.split()[0],
                    "workloads": reports,
                },
                indent=1,
            )
            + "\n"
        )
    failed = any(report["failed"] for report in reports.values())
    if args.workload:
        report = reports[args.workload]
        kind = "per_layer" if args.trace else "end_to_end"
        if kind not in report:
            print("error: no round completed; no result to report", file=sys.stderr)
            return 1
        print(result_line(report, [m["name"] for m in spec[kind]]))
    return 1 if failed else 0
