"""Tests for embedding access distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.distributions import (
    DriftingDistribution,
    EmpiricalDistribution,
    MixtureDistribution,
    UniformDistribution,
    ZipfDistribution,
    hot_prefix_rows,
    locality_of_probabilities,
    solve_alpha_for_locality,
)


class TestZipfDistribution:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ZipfDistribution(0, 1.0)
        with pytest.raises(ValueError):
            ZipfDistribution(10, -0.5)

    def test_probabilities_sum_to_one(self):
        dist = ZipfDistribution(1000, 1.1)
        probs = dist.probabilities()
        assert probs.shape == (1000,)
        assert probs.sum() == pytest.approx(1.0, rel=1e-9)

    def test_probabilities_sorted_descending(self):
        probs = ZipfDistribution(500, 0.9).probabilities()
        assert np.all(np.diff(probs) <= 1e-15)

    def test_coverage_endpoints(self):
        dist = ZipfDistribution(1000, 1.0)
        assert dist.coverage(0) == 0.0
        assert dist.coverage(1000) == 1.0
        assert dist.coverage(2000) == 1.0

    def test_coverage_matches_explicit_probabilities(self):
        dist = ZipfDistribution(2000, 0.8)
        probs = dist.probabilities()
        for k in (1, 10, 500, 1999):
            assert dist.coverage(k) == pytest.approx(probs[:k].sum(), rel=1e-6)

    def test_coverage_range_is_difference(self):
        dist = ZipfDistribution(10_000, 1.2)
        assert dist.coverage_range(100, 500) == pytest.approx(
            dist.coverage(500) - dist.coverage(100)
        )

    def test_coverage_accurate_beyond_exact_head(self):
        # Tables larger than the exact head use the integral approximation.
        large = ZipfDistribution(1 << 18, 0.9)
        probs = large.probabilities()
        k = (1 << 17) + 12345
        assert large.coverage(k) == pytest.approx(probs[:k].sum(), rel=1e-3)

    def test_alpha_zero_is_uniform(self):
        dist = ZipfDistribution(100, 0.0)
        assert dist.coverage(10) == pytest.approx(0.1, rel=1e-9)

    def test_uniform_subclass(self):
        dist = UniformDistribution(50)
        assert dist.alpha == 0.0
        assert dist.locality() == pytest.approx(0.1, rel=1e-6)

    def test_locality_increases_with_alpha(self):
        low = ZipfDistribution(100_000, 0.3).locality()
        high = ZipfDistribution(100_000, 1.2).locality()
        assert high > low

    def test_from_locality_roundtrip(self):
        for target in (0.5, 0.9, 0.94):
            dist = ZipfDistribution.from_locality(200_000, target)
            assert dist.locality() == pytest.approx(target, abs=0.01)

    def test_sampling_respects_skew(self, rng):
        dist = ZipfDistribution.from_locality(10_000, 0.9)
        samples = dist.sample(50_000, rng)
        assert samples.min() >= 0 and samples.max() < 10_000
        hot = np.mean(samples < 1000)
        assert hot == pytest.approx(0.9, abs=0.03)

    def test_sampling_tail_ranks_reachable(self, rng):
        dist = ZipfDistribution(1 << 18, 0.5)
        samples = dist.sample(200_000, rng)
        # Some samples must land beyond the exact head (tail inversion path).
        assert np.any(samples >= (1 << 16))

    def test_sample_empty(self, rng):
        assert ZipfDistribution(100, 1.0).sample(0, rng).size == 0

    def test_expected_unique_bounds(self):
        dist = ZipfDistribution(5000, 1.0)
        unique = dist.expected_unique(10_000)
        assert 0 < unique <= 5000
        assert dist.expected_unique(0) == 0.0

    def test_expected_unique_matches_simulation(self, rng):
        dist = ZipfDistribution.from_locality(2000, 0.8)
        draws = 5000
        expected = dist.expected_unique(draws)
        observed = np.mean(
            [np.unique(dist.sample(draws, rng)).size for _ in range(30)]
        )
        assert expected == pytest.approx(observed, rel=0.05)

    def test_expected_unique_range_splits(self):
        dist = ZipfDistribution(10_000, 1.1)
        total = dist.expected_unique(30_000)
        split = dist.expected_unique(30_000, 0, 4000) + dist.expected_unique(30_000, 4000, 10_000)
        assert 0 < dist.expected_unique(30_000, 0, 4000) <= 4000
        assert split == pytest.approx(total, rel=1e-9)

    def test_invalid_range_rejected(self):
        dist = ZipfDistribution(100, 1.0)
        with pytest.raises(ValueError):
            dist.coverage_range(50, 20)
        with pytest.raises(ValueError):
            dist.expected_unique(10, -1, 5)


class TestEmpiricalDistribution:
    def test_requires_valid_counts(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([])
        with pytest.raises(ValueError):
            EmpiricalDistribution([0.0, 0.0])
        with pytest.raises(ValueError):
            EmpiricalDistribution([1.0, -1.0])
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.ones((2, 2)))

    def test_counts_are_sorted_internally(self):
        dist = EmpiricalDistribution([1.0, 10.0, 5.0])
        probs = dist.probabilities()
        assert probs[0] == pytest.approx(10 / 16)
        assert np.all(np.diff(probs) <= 0)

    def test_coverage_monotone_and_bounded(self):
        dist = EmpiricalDistribution(np.arange(1, 101, dtype=float))
        values = [dist.coverage(k) for k in range(101)]
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0)
        assert np.all(np.diff(values) >= 0)

    def test_sampling_matches_probabilities(self, rng):
        dist = EmpiricalDistribution([8.0, 4.0, 2.0, 1.0, 1.0])
        samples = dist.sample(40_000, rng)
        observed = np.bincount(samples, minlength=5) / 40_000
        assert observed[0] == pytest.approx(0.5, abs=0.02)

    def test_expected_unique(self):
        dist = EmpiricalDistribution(np.ones(10))
        assert dist.expected_unique(10_000) == pytest.approx(10.0, abs=0.01)


class TestHotPrefixRows:
    def test_row_fraction_is_a_ceiling(self):
        dist = ZipfDistribution(1000, 0.9)
        assert hot_prefix_rows(dist, row_fraction=0.01) == 10
        assert hot_prefix_rows(dist, row_fraction=0.0101) == 11
        assert hot_prefix_rows(dist, row_fraction=1e-9) == 1
        assert hot_prefix_rows(dist, row_fraction=1.0) == 1000

    def test_coverage_form_is_the_smallest_covering_prefix(self):
        dist = ZipfDistribution(10_000, 1.1)
        for target in (0.1, 0.5, 0.9, 0.99):
            rows = hot_prefix_rows(dist, coverage=target)
            assert dist.coverage(rows) >= target
            assert rows == 1 or dist.coverage(rows - 1) < target

    def test_coverage_one_needs_every_row(self):
        dist = UniformDistribution(512)
        assert hot_prefix_rows(dist, coverage=1.0) == 512

    def test_rejects_bad_arguments(self):
        dist = UniformDistribution(100)
        with pytest.raises(ValueError, match="exactly one"):
            hot_prefix_rows(dist)
        with pytest.raises(ValueError, match="exactly one"):
            hot_prefix_rows(dist, row_fraction=0.1, coverage=0.5)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                hot_prefix_rows(dist, row_fraction=bad)
            with pytest.raises(ValueError):
                hot_prefix_rows(dist, coverage=bad)

    def test_cost_model_hot_set_is_the_shared_prefix(self):
        # The serve-time skewed cost model resolves its hot set through this
        # helper (row-fraction form), as the embedding cache does.
        from repro.model.configs import rm1
        from repro.serving.workload import SkewedCostModel

        emb = rm1().embedding
        distribution = emb.access_distribution()
        model = SkewedCostModel(distribution, emb.pooling)
        assert model.hot_rank_limit == hot_prefix_rows(
            distribution, row_fraction=model.hot_fraction
        )


class TestLocalityHelpers:
    def test_locality_of_probabilities(self):
        probs = np.array([0.5, 0.3, 0.1, 0.05, 0.03, 0.01, 0.005, 0.003, 0.001, 0.001])
        assert locality_of_probabilities(probs) == pytest.approx(0.5, rel=1e-6)

    def test_locality_of_probabilities_validates(self):
        with pytest.raises(ValueError):
            locality_of_probabilities([])

    def test_solve_alpha_uniform_cases(self):
        assert solve_alpha_for_locality(1000, 0.1) == 0.0
        assert solve_alpha_for_locality(1, 0.9) == 0.0

    def test_solve_alpha_rejects_invalid(self):
        with pytest.raises(ValueError):
            solve_alpha_for_locality(100, 1.5)
        with pytest.raises(ValueError):
            ZipfDistribution(100, 1.0).locality(top_fraction=0.0)


@settings(max_examples=30, deadline=None)
@given(
    num_items=st.integers(min_value=2, max_value=5000),
    alpha=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
def test_zipf_coverage_is_monotone(num_items, alpha):
    dist = ZipfDistribution(num_items, alpha)
    ks = np.linspace(0, num_items, 11).astype(int)
    coverage = [dist.coverage(int(k)) for k in ks]
    assert all(b >= a - 1e-12 for a, b in zip(coverage, coverage[1:]))
    assert coverage[-1] == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    num_items=st.integers(min_value=20, max_value=100_000),
    locality=st.floats(min_value=0.15, max_value=0.99),
)
def test_solve_alpha_reaches_requested_locality(num_items, locality):
    alpha = solve_alpha_for_locality(num_items, locality)
    achieved = ZipfDistribution(num_items, alpha).locality()
    # Tiny tables may be unable to hit extreme localities exactly.
    assert achieved == pytest.approx(locality, abs=0.05) or alpha in (0.0, 8.0)


@settings(max_examples=20, deadline=None)
@given(counts=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
def test_empirical_coverage_bounded(counts):
    if sum(counts) <= 0:
        counts[0] = 1.0
    dist = EmpiricalDistribution(counts)
    for k in (0, len(counts) // 2, len(counts)):
        assert -1e-9 <= dist.coverage(k) <= 1.0 + 1e-9


class TestMixtureDistribution:
    def test_coverage_is_normalized_at_every_interpolation_point(self):
        start = ZipfDistribution(1000, 1.2)
        end = ZipfDistribution(1000, 0.1)
        for weight in np.linspace(0.0, 1.0, 11):
            mixture = MixtureDistribution(start, end, float(weight))
            assert mixture.coverage(1000) == pytest.approx(1.0, abs=1e-9)
            probabilities = mixture.probabilities()
            assert probabilities.sum() == pytest.approx(1.0, abs=1e-9)
            assert (probabilities >= 0.0).all()

    def test_endpoint_weights_reproduce_the_endpoints(self):
        start = ZipfDistribution(500, 1.2)
        end = ZipfDistribution(500, 0.1)
        ks = [0, 10, 250, 500]
        zero = MixtureDistribution(start, end, 0.0)
        one = MixtureDistribution(start, end, 1.0)
        for k in ks:
            assert zero.coverage(k) == pytest.approx(start.coverage(k), abs=1e-12)
            assert one.coverage(k) == pytest.approx(end.coverage(k), abs=1e-12)

    def test_rejects_mismatched_sizes_and_bad_weights(self):
        with pytest.raises(ValueError):
            MixtureDistribution(ZipfDistribution(10, 1.0), ZipfDistribution(20, 1.0), 0.5)
        with pytest.raises(ValueError):
            MixtureDistribution(ZipfDistribution(10, 1.0), ZipfDistribution(10, 0.5), 1.5)


class TestDriftingDistribution:
    def _drift(self, schedule="linear", at_s=60.0, duration_s=300.0):
        return DriftingDistribution(
            ZipfDistribution(1000, 1.2),
            ZipfDistribution(1000, 0.1),
            schedule=schedule,
            at_s=at_s,
            duration_s=duration_s,
        )

    def test_before_onset_returns_the_start_endpoint_exactly(self):
        drift = self._drift()
        # Exact object identity, not approximate equality: at weight zero
        # the drift *is* the start distribution, so every cached structure
        # keyed on it stays valid.
        assert drift.at(0.0) is drift.start
        assert drift.at(60.0) is drift.start  # linear weight is 0 at onset

    def test_at_duration_end_returns_the_end_endpoint_exactly(self):
        drift = self._drift()
        assert drift.at(360.0) is drift.end
        assert drift.at(1e9) is drift.end

    def test_interior_points_are_normalized_mixtures(self):
        drift = self._drift()
        for t in (61.0, 150.0, 359.0):
            mixture = drift.at(t)
            assert isinstance(mixture, MixtureDistribution)
            assert mixture.coverage(1000) == pytest.approx(1.0, abs=1e-9)

    def test_linear_weight_is_clipped_interpolation(self):
        drift = self._drift()
        assert drift.weight_at(0.0) == 0.0
        assert drift.weight_at(60.0) == 0.0
        assert drift.weight_at(210.0) == pytest.approx(0.5)
        assert drift.weight_at(360.0) == 1.0
        assert drift.weight_at(1e9) == 1.0

    def test_step_weight_jumps_exactly_at_onset(self):
        drift = self._drift(schedule="step", duration_s=0.0)
        assert drift.weight_at(59.999) == 0.0
        assert drift.weight_at(60.0) == 1.0
        assert drift.at(59.999) is drift.start
        assert drift.at(60.0) is drift.end

    def test_oscillate_returns_to_the_start_each_period(self):
        drift = self._drift(schedule="oscillate", duration_s=100.0)
        assert drift.weight_at(60.0) == 0.0
        assert drift.weight_at(110.0) == pytest.approx(1.0)
        assert drift.weight_at(160.0) == pytest.approx(0.0, abs=1e-12)
        assert drift.at(160.0) is drift.start

    def test_vectorized_weights_match_scalar_weights(self):
        drift = self._drift()
        times = np.array([0.0, 60.0, 120.0, 210.0, 360.0, 500.0])
        vector = drift.weight_at(times)
        scalar = np.array([drift.weight_at(float(t)) for t in times])
        assert np.array_equal(vector, scalar)

    def test_rejects_bad_schedules_and_durations(self):
        with pytest.raises(ValueError):
            self._drift(schedule="warp")
        with pytest.raises(ValueError):
            self._drift(schedule="linear", duration_s=0.0)
        with pytest.raises(ValueError):
            self._drift(at_s=-1.0)
        with pytest.raises(ValueError):
            DriftingDistribution(
                ZipfDistribution(10, 1.0), ZipfDistribution(20, 1.0), at_s=0.0,
                duration_s=10.0,
            )
