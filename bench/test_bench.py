"""Tests of the benchmark itself, on tiny runs of the real workloads.

Each workload is built by the benchmark's own builders at a few percent of
its simulated duration (under a second per round), so these tests exercise
the same build, run, trace and check code the benchmark times.
"""

from __future__ import annotations

import copy
import json
import re

import pytest

import harness
from workloads import WORKLOADS

#: Simulated-duration scale per workload: the smallest at which the
#: workload's regime check still holds.
TINY = {
    "diurnal_steady": 0.02,
    "cached_skewed": 0.02,
    "incident_slo": 0.05,
    "fleet_streamed": 0.04,
}
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec() -> dict:
    return harness.load_spec()


@pytest.fixture(scope="module")
def rounds() -> dict[str, dict[str, dict]]:
    """Per workload: seed 0 untraced and traced, seed 1 untraced."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "SETUP_REPEATS", 1)
        return {
            name: {
                "seed0": harness.run_round(name, 0, scale=scale),
                "traced": harness.run_round(name, 0, trace=True, scale=scale),
                "seed1": harness.run_round(name, 1, scale=scale),
            }
            for name, scale in TINY.items()
        }


def digests(record: dict) -> dict[str, str]:
    return {name: t["digest"] for name, t in record["tenants"].items()}


def test_every_workload_is_covered(spec):
    assert set(TINY) == set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


@pytest.mark.parametrize("name", list(TINY))
def test_metrics_match_the_spec_and_tracing_changes_nothing(rounds, spec, name):
    untraced, traced = rounds[name]["seed0"], rounds[name]["traced"]
    report = harness.workload_report(name, [untraced, traced])
    assert report["failed"] == 0, report["failures"]
    assert digests(traced) == digests(untraced)

    printed = {**report["end_to_end"], **report["per_layer"]}
    assert all(METRIC_NAME.fullmatch(metric) for metric in printed)
    for kind in ("end_to_end", "per_layer"):
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        line = json.loads(harness.result_line(report, list(wanted)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0
        assert {m: v["unit"] for m, v in line["metrics"].items()} == wanted
    gated = set(report["end_to_end"]) - {harness.FAILED_ROUND_FRAC}
    assert gated == {m["name"] for m in spec["end_to_end"]}
    # Only layers every workload runs report a time, so no time reads 0.
    times = [m["name"] for m in spec["per_layer"] if m["unit"] == "s"]
    assert all(report["per_layer"][metric]["value"] > 0 for metric in times)


@pytest.mark.parametrize("name", list(TINY))
def test_seed_reaches_the_workload(rounds, name):
    seed0, seed1 = rounds[name]["seed0"], rounds[name]["seed1"]
    assert harness.round_failures([seed1]) == [[]]
    assert set(digests(seed1)) == set(digests(seed0))
    assert all(digests(seed1)[t] != digests(seed0)[t] for t in digests(seed0))


def test_broken_conservation_fails_the_round(rounds):
    good = rounds["diurnal_steady"]["seed0"]
    broken = copy.deepcopy(good)
    next(iter(broken["tenants"].values()))["completions"] += 1
    report = harness.workload_report("diurnal_steady", [good, broken])
    assert report["failed"] == 1
    assert any("!= arrivals" in message for message in report["failures"])
    assert report["end_to_end"][harness.FAILED_ROUND_FRAC]["median"] == 0.5


def test_differing_digests_fail_the_round(rounds):
    good = rounds["fleet_streamed"]["seed0"]
    drifted = copy.deepcopy(good)
    next(iter(drifted["tenants"].values()))["digest"] = "0" * 64
    report = harness.workload_report("fleet_streamed", [good, drifted])
    assert report["failed"] == 1
    assert any("digests differ" in message for message in report["failures"])
    assert report["end_to_end"][harness.FAILED_ROUND_FRAC]["median"] > 0


def test_a_failed_round_makes_the_exit_code_nonzero(rounds, monkeypatch, capsys):
    good = rounds["incident_slo"]["seed0"]
    broken = copy.deepcopy(good)
    next(iter(broken["tenants"].values()))["drops"] += 1
    replies = iter([good, broken])
    monkeypatch.setattr(harness, "forked_round", lambda *args, **kwargs: next(replies))
    status = harness.main(["--workload", "incident_slo", "--rounds", "2"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert line["correct"] is False and line["failed"] == 1 and line["attempted"] == 2


def _report(medians: dict[str, tuple[float, float, float]]) -> dict:
    end_to_end = {
        metric: {"median": m, "p25": lo, "p75": hi} for metric, (lo, m, hi) in medians.items()
    }
    return {"workloads": {"diurnal_steady": {"end_to_end": end_to_end}}}


def test_compare_gates_medians_and_flags_wide_spreads(spec):
    steady = {
        "queries_per_s": (49_000.0, 50_000.0, 51_000.0),
        "setup_s": (0.19, 0.2, 0.21),
        "peak_rss_mb": (70.0, 71.0, 72.0),
        harness.FAILED_ROUND_FRAC: (0.0, 0.0, 0.0),
    }
    rows, worse = harness.compare(_report(steady), _report(steady), spec)
    assert not worse and all(row.endswith(" ok") for row in rows)

    slower = dict(steady, queries_per_s=(34_000.0, 35_000.0, 36_000.0))
    rows, worse = harness.compare(_report(steady), _report(slower), spec)
    assert worse and any("queries_per_s" in row and "WORSE" in row for row in rows)

    noisy = dict(steady, peak_rss_mb=(50.0, 71.0, 90.0))
    rows, worse = harness.compare(_report(steady), _report(noisy), spec)
    assert not worse and any("peak_rss_mb" in row and "unresolved" in row for row in rows)

    failing = dict(steady, **{harness.FAILED_ROUND_FRAC: (0.2, 0.2, 0.2)})
    rows, worse = harness.compare(_report(steady), _report(failing), spec)
    assert worse
