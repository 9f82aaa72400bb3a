"""Tests for the synthetic dataset presets (Figure 6 stand-ins)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import amazon_books, criteo, dataset_presets, movielens


class TestPresets:
    def test_all_presets_registered(self):
        presets = dataset_presets()
        assert set(presets) == {"amazon-books", "criteo", "movielens"}

    def test_movielens_matches_paper_locality(self):
        dataset = movielens()
        assert dataset.locality == pytest.approx(0.94)
        assert dataset.distribution().locality() == pytest.approx(0.94, abs=0.01)

    def test_sizes_match_figure_axes(self):
        assert amazon_books().num_items == 2_000_000
        assert criteo().num_items == 2_000_000
        assert movielens().num_items == 50_000

    def test_distribution_is_cached(self):
        dataset = criteo()
        assert dataset.distribution() is dataset.distribution()


class TestAccessFrequencyCurve:
    def test_curve_is_decreasing(self):
        ranks, freqs = movielens().access_frequency_curve(num_points=50)
        assert ranks.shape == freqs.shape
        assert np.all(np.diff(freqs) <= 1e-12)

    def test_curve_spans_the_table(self):
        dataset = amazon_books()
        ranks, _ = dataset.access_frequency_curve(num_points=30)
        assert ranks[0] == 0
        assert ranks[-1] == dataset.num_items - 1

    def test_curve_frequencies_are_percentages(self):
        _, freqs = criteo().access_frequency_curve(num_points=20)
        assert freqs.max() < 100.0
        assert freqs.min() > 0.0

    def test_num_points_validation(self):
        with pytest.raises(ValueError):
            movielens().access_frequency_curve(num_points=1)


class TestSampleTrace:
    @pytest.mark.parametrize("name", sorted(dataset_presets()))
    def test_trace_is_deterministic_per_seed(self, name):
        distribution = dataset_presets()[name].distribution()
        a, b, c = (
            distribution.sample(1000, np.random.default_rng(seed)) for seed in (7, 7, 8)
        )
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_trace_respects_skew(self):
        dataset = movielens()
        trace = dataset.distribution().sample(20_000, np.random.default_rng(0))
        hot_fraction = np.mean(trace < dataset.num_items // 10)
        assert hot_fraction == pytest.approx(0.94, abs=0.03)
