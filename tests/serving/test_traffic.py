"""Tests for traffic patterns and arrival generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.traffic import TrafficPattern, TrafficPhase, paper_dynamic_pattern


class TestTrafficPattern:
    def test_constant(self):
        pattern = TrafficPattern.constant(50.0, duration_s=100.0)
        assert pattern.rate_at(0.0) == 50.0
        assert pattern.rate_at(99.9) == 50.0
        assert pattern.peak_rate == 50.0
        assert pattern.expected_queries() == pytest.approx(5000.0)

    def test_steps(self):
        pattern = TrafficPattern.from_steps([(0, 10), (50, 30), (80, 5)], duration_s=100)
        assert pattern.rate_at(0) == 10
        assert pattern.rate_at(49.9) == 10
        assert pattern.rate_at(50) == 30
        assert pattern.rate_at(90) == 5
        assert pattern.peak_rate == 30
        assert pattern.expected_queries() == pytest.approx(10 * 50 + 30 * 30 + 5 * 20)

    def test_rate_at_negative_raises(self):
        pattern = TrafficPattern.constant(10, 100)
        with pytest.raises(ValueError):
            pattern.rate_at(-1)

    def test_rate_at_clamps_past_the_end(self):
        pattern = TrafficPattern.from_steps([(0, 10), (50, 30)], duration_s=100)
        assert pattern.rate_at(101) == 30
        assert pattern.rate_at(1e9) == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficPattern(phases=(), duration_s=10)
        with pytest.raises(ValueError):
            TrafficPattern.from_steps([(5, 10)], duration_s=100)
        with pytest.raises(ValueError):
            TrafficPattern.from_steps([(0, 10), (0, 20)], duration_s=100)
        with pytest.raises(ValueError):
            TrafficPattern.from_steps([(0, 10), (50, 20)], duration_s=50)
        with pytest.raises(ValueError):
            TrafficPhase(start_s=-1, rate_qps=10)
        with pytest.raises(ValueError):
            TrafficPhase(start_s=0, rate_qps=-10)

    def test_arrivals_are_sorted_and_bounded(self, rng):
        pattern = TrafficPattern.from_steps([(0, 20), (50, 80)], duration_s=100)
        arrivals = pattern.arrivals(rng)
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals.min() >= 0 and arrivals.max() <= 100

    def test_arrival_count_close_to_expected(self, rng):
        pattern = TrafficPattern.constant(100.0, duration_s=200.0)
        arrivals = pattern.arrivals(rng)
        assert arrivals.size == pytest.approx(pattern.expected_queries(), rel=0.05)

    def test_zero_rate_phase_produces_no_arrivals(self, rng):
        pattern = TrafficPattern.from_steps([(0, 0.0)], duration_s=100)
        assert pattern.arrivals(rng).size == 0
        assert TrafficPattern.constant(0.0, 60.0).arrivals(rng).size == 0


class TestPaperDynamicPattern:
    def test_shape(self):
        pattern = paper_dynamic_pattern(base_qps=50, peak_qps=250, duration_s=1800)
        assert pattern.rate_at(0) == 50
        assert pattern.rate_at(5 * 60) == pytest.approx(90.0)
        assert pattern.rate_at(20 * 60) == pytest.approx(250.0)
        # Traffic drops back down at minute 24.
        assert pattern.rate_at(25 * 60) < 120
        assert pattern.peak_rate == pytest.approx(250.0)

    def test_scaled_duration_keeps_shape(self):
        pattern = paper_dynamic_pattern(base_qps=10, peak_qps=50, duration_s=900)
        assert pattern.rate_at(0) == 10
        assert pattern.rate_at(899) < 50
        assert pattern.peak_rate == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            paper_dynamic_pattern(base_qps=100, peak_qps=50)


class TestRateAtExactBoundaries:
    """Exact window/phase boundaries of ``rate_at`` (no off-by-one drift)."""

    @pytest.fixture()
    def stepped(self) -> TrafficPattern:
        return TrafficPattern.from_steps([(0.0, 10.0), (60.0, 20.0)], duration_s=120.0)

    def test_phase_start_boundary_belongs_to_the_new_phase(self, stepped):
        # A phase owns its start instant: [start, next_start).
        assert stepped.rate_at(60.0) == 20.0
        assert stepped.rate_at(59.999999) == 10.0

    def test_t_equal_to_duration_reads_the_final_rate(self, stepped):
        assert stepped.rate_at(stepped.duration_s) == 20.0

    def test_past_duration_clamps_to_the_final_rate(self, stepped):
        # Sample grids may overshoot duration_s (engine boundary arithmetic);
        # the clamp keeps them on the final phase instead of raising.
        assert stepped.rate_at(stepped.duration_s + 1e-9) == 20.0
        assert stepped.rate_at(stepped.duration_s + 1e6) == 20.0

    def test_time_zero_reads_the_first_phase(self, stepped):
        assert stepped.rate_at(0.0) == 10.0

    def test_negative_time_rejected(self, stepped):
        with pytest.raises(ValueError):
            stepped.rate_at(-1e-9)

    def test_boundary_exactness_with_float_phase_starts(self):
        # Phase starts produced by float arithmetic (the scenario builders'
        # arange grids) must stay exact at their own boundaries.
        starts = [i * 0.1 for i in range(5)]
        pattern = TrafficPattern.from_steps(
            [(start, float(i)) for i, start in enumerate(starts)], duration_s=1.0
        )
        for i, start in enumerate(starts):
            assert pattern.rate_at(start) == float(i)
