"""Tests for hotness sorting and table preprocessing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preprocessing import SortedTable, preprocess_table, sort_by_hotness
from repro.data.distributions import ZipfDistribution
from repro.model.embedding import EmbeddingTableSpec


class TestSortByHotness:
    def test_sorts_descending(self):
        counts = np.array([3.0, 9.0, 1.0, 5.0])
        permutation, sorted_counts = sort_by_hotness(counts)
        assert sorted_counts.tolist() == [9.0, 5.0, 3.0, 1.0]
        assert permutation.tolist() == [1, 3, 0, 2]

    def test_stable_for_ties(self):
        counts = np.array([2.0, 2.0, 2.0])
        permutation, _ = sort_by_hotness(counts)
        assert permutation.tolist() == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            sort_by_hotness(np.array([]))
        with pytest.raises(ValueError):
            sort_by_hotness(np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            sort_by_hotness(np.ones((2, 2)))


class TestSortedTable:
    def _spec(self, rows=1000):
        return EmbeddingTableSpec(table_id=0, rows=rows, dim=8)

    def test_from_distribution(self):
        dist = ZipfDistribution.from_locality(1000, 0.9)
        table = SortedTable(spec=self._spec(), distribution=dist, pooling=16)
        assert table.rows == 1000
        assert table.coverage(1000) == pytest.approx(1.0)

    def test_expected_gathers_is_coverage_times_pooling(self):
        dist = ZipfDistribution.from_locality(1000, 0.9)
        table = SortedTable(spec=self._spec(), distribution=dist, pooling=100)
        hot = table.expected_gathers(0, 100)
        cold = table.expected_gathers(900, 1000)
        assert hot == pytest.approx(dist.coverage_range(0, 100) * 100)
        assert hot > cold
        assert table.expected_gathers(0, 1000) == pytest.approx(100.0)

    def test_distribution_size_must_match(self):
        dist = ZipfDistribution(500, 1.0)
        with pytest.raises(ValueError):
            SortedTable(spec=self._spec(1000), distribution=dist, pooling=4)


class TestPreprocessTable:
    def test_from_counts(self):
        counts = np.array([1.0, 50.0, 3.0, 20.0])
        spec = EmbeddingTableSpec(table_id=0, rows=4, dim=2)
        table = preprocess_table(spec, pooling=2, access_counts=counts)
        # Rank 0 must be the hottest original row (row 1).
        assert table.permutation[0] == 1
        assert table.coverage(1) == pytest.approx(50.0 / counts.sum())

    def test_from_distribution(self):
        spec = EmbeddingTableSpec(table_id=0, rows=100, dim=2)
        dist = ZipfDistribution.from_locality(100, 0.8)
        table = preprocess_table(spec, pooling=4, distribution=dist)
        assert table.permutation is None

    def test_exactly_one_source_required(self):
        spec = EmbeddingTableSpec(table_id=0, rows=4, dim=2)
        dist = ZipfDistribution(4, 1.0)
        with pytest.raises(ValueError):
            preprocess_table(spec, pooling=1)
        with pytest.raises(ValueError):
            preprocess_table(spec, pooling=1, access_counts=np.ones(4), distribution=dist)

    def test_counts_length_checked(self):
        spec = EmbeddingTableSpec(table_id=0, rows=4, dim=2)
        with pytest.raises(ValueError):
            preprocess_table(spec, pooling=1, access_counts=np.ones(5))
