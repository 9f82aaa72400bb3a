"""Mode-equivalence matrix: one feature timeline, every execution mode.

Each row turns on one feature mix; each test crosses it with execution
modes that must agree digest-for-digest: a single :class:`ServingEngine`
vs a one-tenant :class:`MultiTenantEngine`, serial vs sharded across worker
processes, and in-memory vs streamed to an on-disk spool.  The sharded and
streamed runs pair a featured tenant with a plain one, so per-tenant
optional series (cache hit rates, watchdog levels) must round-trip through
the merge for a mixed fleet.  Every row also asserts that its feature
actually fired: a matrix over a feature that never actuates proves nothing.

The fast tier runs 120 s timelines; the slow tier (``--runslow``) crosses
every mode pair at 300 s.  Alongside the matrix, the RNG-stream isolation
lock: drift and the replanner draw only from the dedicated ``[seed, 4]``
stream, so a drift that never leaves weight zero (or a detector that can
never fire) is bit-exact with the feature off.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving.engine import MultiTenantEngine, ServingEngine, TenantSpec
from repro.serving.sharding import run_sharded
from repro.serving.traffic import TrafficPattern

DRIFT = "linear@10+60:to=0.1"
REPLAN = "sla@1.2:patience=2,cooldown=30,max=2"
FAULTS = "degrade@20+60:factor=3;crash@40:policy=drop"
#: Hair-trigger ladder: sheds, arms deadlines/retries and falls back within
#: the first few sample ticks of the brownout.
SLO = "p95@0.5:patience=1,shed=0.2,deadline=20,timeout=6,retries=2,storm=1.0,recover=3"


def _guarded(result) -> bool:
    return result.slo_tier1_breaches >= 1 and result.shed_queries >= 1


#: Row id -> (engine options, liveness check).  Every row runs skewed costs.
ROWS = {
    "drift+replan": (dict(drift=DRIFT, replan=REPLAN), lambda r: r.replans_applied >= 1),
    "drift-only": (dict(drift=DRIFT), lambda r: r.drift == DRIFT and r.replans_applied == 0),
    "faults+watchdog": (dict(faults=FAULTS, slo=SLO), _guarded),
    "watchdog-only": (dict(slo=SLO), _guarded),
    "cached+crash": (
        dict(cache_mb=16.0, faults="single-crash"),
        lambda r: bool(r.cache_hit_rate) and r.faults_injected >= 1,
    ),
}


@pytest.fixture(scope="module")
def plan():
    return ElasticRecPlanner(cpu_only_cluster(num_nodes=4)).plan(
        microbenchmark(num_tables=2), target_qps=30.0
    )


@pytest.fixture(scope="module")
def shard_plan():
    return ElasticRecPlanner(cpu_only_cluster(num_nodes=16)).plan(
        microbenchmark(num_tables=2), target_qps=30.0
    )


def _pattern(duration_s: float = 120.0) -> TrafficPattern:
    return TrafficPattern.constant(20.0, duration_s=duration_s)


def _single(plan, options, duration_s=120.0):
    return ServingEngine(plan, seed=7, cost_model="skewed", **options).run(
        _pattern(duration_s)
    )


def _tenants(plan, options, duration_s=120.0):
    """A plain tenant ``t0`` plus the row's featured tenant ``t1``."""
    return [
        TenantSpec(
            name=f"t{index}",
            plan=plan,
            pattern=_pattern(duration_s),
            seed=7 + index,
            max_replicas=6,
            cost_model="skewed",
            **(options if index else {}),
        )
        for index in range(2)
    ]


def _fingerprint(result) -> tuple:
    """Digest plus the aggregates :meth:`SimulationResult.digest` leaves out."""
    return (
        result.digest(),
        result.replans_applied,
        result.slo_tier1_breaches,
        result.slo_tier2_flags,
        result.drift,
        result.replan,
        result.slo,
        result.cache_mb,
    )


def _assert_live(result, alive) -> None:
    assert alive(result), "the matrix row's feature never fired"
    # Conservation identity: every arrival is accounted for exactly once.
    assert (
        result.completed_queries
        + result.rejected_queries
        + result.dropped_queries
        + result.timeout_queries
        == result.tracker.num_samples
    )


def _fleet(result) -> tuple:
    return tuple(_fingerprint(result.tenant(name)) for name in sorted(result.tenants))


@pytest.mark.parametrize("row", list(ROWS))
def test_multitenant_matches_single_engine(plan, row):
    options, alive = ROWS[row]
    single = _single(plan, options)
    _assert_live(single, alive)
    spec = TenantSpec(
        name="t", plan=plan, pattern=_pattern(), seed=7, cost_model="skewed", **options
    )
    merged = MultiTenantEngine([spec]).run().tenant("t")
    assert _fingerprint(merged) == _fingerprint(single)


@pytest.mark.parametrize("row", list(ROWS))
def test_sharded_and_streamed_match_serial(shard_plan, row, tmp_path):
    options, alive = ROWS[row]
    tenants = _tenants(shard_plan, options)
    serial = run_sharded(tenants, workers=1)
    _assert_live(serial.tenant("t1"), alive)
    sharded = run_sharded(tenants, workers=2)
    # Tiny spill/flush thresholds split every series across many chunks.
    streamed = run_sharded(
        tenants, workers=1, stream_dir=str(tmp_path), spill_threshold=64, flush_series_every=3
    )
    assert _fleet(sharded) == _fleet(serial)
    assert _fleet(streamed) == _fleet(serial)


@pytest.mark.slow
def test_all_modes_agree(shard_plan, tmp_path):
    """Every row at every (workers, spool) mode pair, at a longer horizon."""
    for row, (options, alive) in ROWS.items():
        fleets = {}
        for workers, spool in itertools.product((1, 2), (False, True)):
            stream_dir = str(tmp_path / f"{row}-{workers}-{int(spool)}") if spool else None
            result = run_sharded(
                _tenants(shard_plan, options, duration_s=300.0),
                workers=workers,
                stream_dir=stream_dir,
            )
            _assert_live(result.tenant("t1"), alive)
            fleets[(workers, spool)] = _fleet(result)
        assert len(set(fleets.values())) == 1, (row, fleets)


class TestRngStreamIsolation:
    """Drift and the replanner draw only from the ``[seed, 4]`` stream: any
    configuration that never leaves weight zero (or can never fire) must be
    bit-exact with the feature off — the ``[seed, 2]`` cost stream is
    consumed identically either way."""

    @pytest.fixture(scope="class")
    def baseline(self, plan):
        return _single(plan, {}).digest()

    @pytest.mark.parametrize(
        "options",
        [
            # Two different endpoints, both at weight zero for the whole run:
            # the endpoint pool is drawn from [seed, 4], so neither draw may
            # perturb the cost stream.
            dict(drift="step@99999:to=0.2"),
            dict(drift="step@99999:to=0.05"),
            dict(drift="step@99999:to=0.8"),
            dict(drift="linear@99999+100:to=0.1"),
            dict(replan="sla@1000.0:patience=3"),
        ],
        ids=["step", "step-low", "step-high", "linear-past-horizon", "unfireable-replan"],
    )
    def test_inert_feature_is_bit_exact_with_feature_off(self, plan, baseline, options):
        assert _single(plan, options).digest() == baseline

    def test_unfireable_replan_under_drift_matches_drift_only(self, plan):
        drift_only = _single(plan, dict(drift=DRIFT))
        armed = _single(plan, dict(drift=DRIFT, replan="sla@1000.0:patience=3"))
        assert armed.replans_applied == 0
        assert armed.digest() == drift_only.digest()
