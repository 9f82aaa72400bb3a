"""Unit tests for the SLO watchdog: grammar, boundaries, tiers and ladder.

The exact-boundary contracts mirror the replanner's ``DriftDetector``: every
tier-1 rule is *strict*, so a series sitting exactly at its threshold never
fires, and the tier-2 distribution tests abstain below their minimum window
instead of flagging noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.replanner import DriftDetector, ReplanPolicy
from repro.serving.spec import SpecError
from repro.serving.watchdog import (
    MIN_TIER2_SAMPLES,
    SloPolicy,
    SloWatchdog,
    detect_shift,
    ks_2samp,
    make_slo_policy,
    mann_whitney_u,
    parse_slo_spec,
    retry_allowed,
)
from repro.serving.workload import degraded_gather_multiplier


class TestSpecGrammar:
    def test_full_spec_round_trips(self):
        policy = parse_slo_spec(
            "p95@1.5:p99=2.5,availability=0.99,reject=0.05,patience=2,"
            "window=4,baseline=4,alpha=0.01,shed=0.1,deadline=4,timeout=2,"
            "retries=2,backoff=0.05,jitter=0.5,storm=0.25,recover=2,"
            "escalate=4,quality=0.25"
        )
        assert policy.p95_beta == 1.5
        assert policy.p99_beta == 2.5
        assert policy.shed_fraction == 0.1
        assert policy.retries == 2
        assert policy.storm == 0.25

    def test_defaults_fill_unset_keys(self):
        policy = parse_slo_spec("p95@2.0")
        assert policy == SloPolicy(p95_beta=2.0)

    def test_none_and_empty_mean_off(self):
        assert make_slo_policy(None) is None
        assert make_slo_policy("none") is None
        assert make_slo_policy("") is None
        instance = SloPolicy()
        assert make_slo_policy(instance) is instance

    @pytest.mark.parametrize(
        "spec",
        [
            "p95",
            "p50@1.5",
            "p95@oops",
            "p95@1.5:unknown=1",
            "p95@1.5:shed",
        ],
    )
    def test_malformed_specs_raise_one_line_hints(self, spec):
        with pytest.raises(SpecError) as excinfo:
            make_slo_policy(spec)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "p95@<beta>" in message

    @pytest.mark.parametrize(
        "spec",
        [
            "p95@1.5:shed=2.0",
            "p95@1.5:deadline=2,timeout=4",
            "p95@1.5:patience=0",
            "p95@0",
        ],
    )
    def test_out_of_range_values_raise_one_line_errors(self, spec):
        with pytest.raises(SpecError) as excinfo:
            make_slo_policy(spec)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "malformed slo spec" in message

    def test_unknown_key_error_names_the_known_keys(self):
        with pytest.raises(ValueError, match="storm"):
            parse_slo_spec("p95@1.5:tornado=1")


class TestTier1Boundaries:
    """Exactly-at-threshold never fires — strict comparisons throughout."""

    def _watchdog(self, **overrides) -> SloWatchdog:
        defaults = dict(patience=1, window=2, baseline=2, alpha=0.0)
        defaults.update(overrides)
        return SloWatchdog(SloPolicy(**defaults), sla_s=1.0)

    def test_p95_exactly_at_threshold_never_breaches(self):
        watchdog = self._watchdog(p95_beta=1.5, p99_beta=1.5)
        for _ in range(10):
            actions = watchdog.observe(0.0, [1.5] * 100, 1.0, 0.0)
            assert actions == []
        assert watchdog.tier1_breaches == 0
        assert watchdog.level == 0

    def test_p95_above_threshold_breaches(self):
        watchdog = self._watchdog(p95_beta=1.5)
        actions = watchdog.observe(0.0, [1.5000001] * 100, 1.0, 0.0)
        assert actions == [("degrade", 1)]
        assert watchdog.tier1_breaches == 1
        assert "p95" in watchdog.last_breaches[0]

    def test_availability_exactly_at_floor_never_breaches(self):
        watchdog = self._watchdog(availability_floor=0.99)
        assert watchdog.observe(0.0, [0.1], 0.99, 0.0) == []
        assert watchdog.observe(0.0, [0.1], 0.9899999, 0.0) == [("degrade", 1)]

    def test_reject_rate_exactly_at_ceiling_never_breaches(self):
        watchdog = self._watchdog(reject_ceiling=0.05)
        assert watchdog.observe(0.0, [0.1], 1.0, 0.05) == []
        assert watchdog.observe(0.0, [0.1], 1.0, 0.0500001) == [("degrade", 1)]

    def test_patience_counts_consecutive_breaches_only(self):
        watchdog = self._watchdog(patience=2)
        assert watchdog.observe(0.0, [9.0] * 10, 1.0, 0.0) == []
        # A clean tick resets the streak.
        assert watchdog.observe(0.0, [0.1] * 10, 1.0, 0.0) == []
        assert watchdog.observe(0.0, [9.0] * 10, 1.0, 0.0) == []
        assert watchdog.observe(0.0, [9.0] * 10, 1.0, 0.0) == [("degrade", 1)]


class TestTier2MinimumWindow:
    def test_detect_shift_abstains_below_min_samples(self):
        live = np.full(MIN_TIER2_SAMPLES - 1, 100.0)
        baseline = np.zeros(MIN_TIER2_SAMPLES + 10)
        verdict = detect_shift(live, baseline, alpha=0.05)
        assert not verdict.shifted
        assert verdict.mw_p == 1.0 and verdict.ks_p == 1.0
        assert verdict.samples == (live.size, baseline.size)

    def test_detect_shift_flags_a_clear_shift(self):
        rng = np.random.default_rng(0)
        baseline = rng.normal(1.0, 0.05, size=64)
        live = baseline + 1.0
        verdict = detect_shift(live, baseline, alpha=0.01)
        assert verdict.shifted

    def test_detect_shift_with_alpha_zero_never_flags(self):
        baseline = np.zeros(32)
        live = np.full(32, 100.0)
        assert not detect_shift(live, baseline, alpha=0.0).shifted

    def test_identical_windows_do_not_shift(self):
        window = np.linspace(0.1, 1.0, 32)
        assert not detect_shift(window, window.copy(), alpha=0.05).shifted

    def test_watchdog_warms_baseline_before_testing(self):
        watchdog = SloWatchdog(
            SloPolicy(
                p95_beta=1e9, p99_beta=1e9, availability_floor=0.0,
                reject_ceiling=1.0, baseline=3, window=2, alpha=0.05, patience=1,
            ),
            sla_s=1.0,
        )
        calm = [0.1] * 32
        for _ in range(3):
            assert not watchdog.baseline_warm
            watchdog.observe(0.0, calm, 1.0, 0.0)
        assert watchdog.baseline_warm
        # Idle ticks never polluted the baseline and never count as a shift.
        assert watchdog.observe(0.0, [], 1.0, 0.0) == []
        shifted = [5.0] * 32
        watchdog.observe(0.0, shifted, 1.0, 0.0)
        watchdog.observe(0.0, shifted, 1.0, 0.0)
        assert watchdog.tier2_flags > 0
        assert watchdog.tier1_breaches == 0


class TestDistributionTests:
    def test_mann_whitney_matches_known_shift(self):
        a = np.array([5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0])
        b = np.array([1.0, 2.0, 3.0, 4.0, 4.5, 3.5, 2.5, 1.5])
        _, p_greater = mann_whitney_u(a, b, alternative="greater")
        _, p_less = mann_whitney_u(b, a, alternative="greater")
        assert p_greater < 0.01
        assert p_less > 0.5

    def test_mann_whitney_handles_ties_and_degenerate_input(self):
        a = np.full(10, 3.0)
        _, p = mann_whitney_u(a, a.copy(), alternative="greater")
        assert p == 1.0

    def test_ks_two_sample_directions(self):
        a = np.linspace(2.0, 3.0, 16)
        b = np.linspace(0.0, 1.0, 16)
        _, p_greater = ks_2samp(a, b, alternative="greater")
        _, p_reverse = ks_2samp(b, a, alternative="greater")
        assert p_greater < 0.01
        assert p_reverse > 0.5
        _, p_two = ks_2samp(a, b, alternative="two-sided")
        assert p_two < 0.01


class TestRetryStormGuard:
    def test_storm_zero_disables_retries(self):
        assert not retry_allowed(0, 100, 0.0)

    def test_exactly_at_cap_never_launches(self):
        # cap = 0.25 * 8 = 2.0: two live retries sit exactly at the cap.
        assert retry_allowed(1, 8, 0.25)
        assert not retry_allowed(2, 8, 0.25)

    def test_cap_floors_at_one_live_retry(self):
        assert retry_allowed(0, 0, 0.25)
        assert not retry_allowed(1, 0, 0.25)


class TestLadder:
    def _watchdog(self, **overrides) -> SloWatchdog:
        defaults = dict(patience=1, recover_patience=2, escalate_patience=2, alpha=0.0)
        defaults.update(overrides)
        return SloWatchdog(SloPolicy(**defaults), sla_s=1.0)

    def test_ladder_degrades_one_level_per_patience_run(self):
        watchdog = self._watchdog()
        hot = [9.0] * 10
        assert watchdog.observe(0.0, hot, 1.0, 0.0) == [("degrade", 1)]
        assert watchdog.observe(0.0, hot, 1.0, 0.0) == [("degrade", 2)]
        assert watchdog.observe(0.0, hot, 1.0, 0.0) == [("degrade", 3)]
        assert watchdog.level == 3

    def test_top_of_ladder_escalates_after_patience(self):
        watchdog = self._watchdog()
        hot = [9.0] * 10
        for _ in range(3):
            watchdog.observe(0.0, hot, 1.0, 0.0)
        assert watchdog.observe(0.0, hot, 1.0, 0.0) == []
        assert watchdog.observe(0.0, hot, 1.0, 0.0) == [("escalate",)]
        assert watchdog.escalations == 1

    def test_recovery_needs_consecutive_clean_ticks(self):
        watchdog = self._watchdog()
        hot, calm = [9.0] * 10, [0.1] * 10
        watchdog.observe(0.0, hot, 1.0, 0.0)
        assert watchdog.level == 1
        assert watchdog.observe(0.0, calm, 1.0, 0.0) == []
        assert watchdog.observe(0.0, calm, 1.0, 0.0) == [("recover", 0)]
        assert watchdog.level == 0
        assert watchdog.recoveries == 1


class TestEscalationIntoReplanner:
    def test_escalate_respects_fire_budget_and_cooldown(self):
        detector = DriftDetector(
            ReplanPolicy(threshold=1.5, cooldown_s=100.0, max_replans=2), sla_s=1.0
        )
        assert detector.escalate(10.0)
        assert not detector.escalate(50.0)  # inside the cooldown
        assert detector.escalate(120.0)
        assert not detector.escalate(500.0)  # fire budget exhausted
        assert detector.fires == 2


class TestDegradedPricing:
    def test_hot_only_gather_scales_the_multiplier(self):
        full = degraded_gather_multiplier(2.0, hot=30.0, cold=70.0, hot_cost_fraction=0.5)
        # hot cost 15 against 15 + 70 total.
        assert full == pytest.approx(2.0 * 15.0 / 85.0)

    def test_zero_work_keeps_the_multiplier(self):
        assert degraded_gather_multiplier(2.0, 0.0, 0.0, 0.5) == 2.0
