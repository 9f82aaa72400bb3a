"""Unit tests for the replan policy grammar and the threshold-tier detector.

The detector's boundary semantics are load-bearing for determinism: a p95
sitting *exactly* at ``threshold * sla`` must never fire (breaches are
strict), idle intervals reset the patience streak, the cooldown preserves
the streak, and the fire cap is hard.
"""

from __future__ import annotations

import pytest

from repro.serving.replanner import (
    DriftDetector,
    ReplanPolicy,
    make_replan_policy,
    parse_replan_spec,
)
from repro.serving.spec import SpecError


class TestParseReplanSpec:
    def test_threshold_only_gets_defaults(self):
        policy = parse_replan_spec("sla@1.5")
        assert policy == ReplanPolicy(
            threshold=1.5, patience=3, cooldown_s=120.0, max_replans=1,
            copy_gb_per_s=1.0,
        )

    def test_every_parameter_parses(self):
        policy = parse_replan_spec("sla@2.0:patience=5,cooldown=60,max=4,bandwidth=8")
        assert policy.threshold == 2.0
        assert policy.patience == 5
        assert policy.cooldown_s == 60.0
        assert policy.max_replans == 4
        assert policy.copy_gb_per_s == 8.0

    @pytest.mark.parametrize(
        "spec,fragment",
        [
            ("", "empty spec"),
            ("sla", "missing '@<threshold>'"),
            ("slo@1.5", "unknown replan trigger"),
            ("sla@", "bad threshold"),
            ("sla@abc", "bad threshold"),
            ("sla@1.5:patience", "bad parameter"),
            ("sla@1.5:verve=3", "unknown parameter"),
            ("sla@1.5:patience=x", "bad patience"),
            ("sla@0", "threshold must be positive"),
            ("sla@1.5:patience=0", "patience must be at least 1"),
            ("sla@1.5:max=0", "max must be at least 1"),
            ("sla@1.5:bandwidth=0", "bandwidth must be positive"),
            ("sla@1.5:cooldown=-1", "cooldown must be non-negative"),
        ],
    )
    def test_malformed_specs_raise_one_line_hints(self, spec, fragment):
        with pytest.raises(SpecError) as excinfo:
            parse_replan_spec(spec)
        message = str(excinfo.value)
        assert fragment in message
        assert "\n" not in message

    def test_make_replan_policy_resolution(self):
        assert make_replan_policy(None) is None
        assert make_replan_policy("none") is None
        assert make_replan_policy("") is None
        policy = ReplanPolicy(threshold=2.0)
        assert make_replan_policy(policy) is policy
        assert make_replan_policy("sla@2.0").threshold == 2.0

    def test_validate_accepts_off_and_rejects_garbage(self):
        assert make_replan_policy(None) is None
        assert make_replan_policy("none") is None
        with pytest.raises(SpecError, match="bad threshold 'nope'"):
            make_replan_policy("sla@nope")


class TestDriftDetector:
    def _detector(self, **kwargs) -> DriftDetector:
        defaults = dict(threshold=1.5, patience=2, cooldown_s=10.0, max_replans=2)
        defaults.update(kwargs)
        return DriftDetector(ReplanPolicy(**defaults), sla_s=0.1)

    def test_exactly_at_threshold_never_fires(self):
        detector = self._detector(patience=1)
        # threshold_s == 1.5 * 0.1 == 0.15: an exact hit is not a breach.
        for tick in range(10):
            assert detector.observe(float(tick), detector.threshold_s) is False
        assert detector.fires == 0

    def test_strictly_above_threshold_fires_after_patience(self):
        detector = self._detector()
        above = detector.threshold_s * 1.0001
        assert detector.observe(0.0, above) is False  # streak 1 < patience 2
        assert detector.observe(1.0, above) is True
        assert detector.fires == 1

    def test_idle_interval_resets_the_streak(self):
        detector = self._detector()
        above = detector.threshold_s + 0.01
        assert detector.observe(0.0, above) is False
        assert detector.observe(1.0, None) is False  # idle: streak resets
        assert detector.observe(2.0, above) is False  # streak back to 1
        assert detector.observe(3.0, above) is True

    def test_cooldown_keeps_the_streak_and_defers_the_fire(self):
        detector = self._detector(patience=1, cooldown_s=10.0)
        above = detector.threshold_s + 0.01
        assert detector.observe(0.0, above) is True
        assert detector.observe(5.0, above) is False  # inside cooldown
        assert detector.observe(10.0, above) is True  # first sample past it
        assert detector.fires == 2

    def test_max_replans_is_a_hard_cap(self):
        detector = self._detector(patience=1, cooldown_s=0.0, max_replans=2)
        above = detector.threshold_s + 0.01
        fires = [detector.observe(float(tick), above) for tick in range(10)]
        assert sum(fires) == 2
        assert detector.fires == 2

    def test_detector_rejects_nonpositive_sla(self):
        with pytest.raises(ValueError):
            DriftDetector(ReplanPolicy(), sla_s=0.0)
