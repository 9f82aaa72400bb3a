"""Tests for embedding table specs, tables and bags."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.embedding import EmbeddingBag, EmbeddingTable, EmbeddingTableSpec


class TestEmbeddingTableSpec:
    def test_sizes(self):
        spec = EmbeddingTableSpec(table_id=0, rows=1000, dim=32)
        assert spec.row_bytes == 128
        assert spec.size_bytes == 128_000

    def test_paper_scale_table_size(self):
        spec = EmbeddingTableSpec(table_id=0, rows=20_000_000, dim=32)
        assert spec.size_bytes == pytest.approx(2.56e9, rel=1e-6)

    def test_slice_bytes(self):
        spec = EmbeddingTableSpec(table_id=0, rows=100, dim=4)
        assert spec.slice_bytes(10, 60) == 50 * 16
        with pytest.raises(ValueError):
            spec.slice_bytes(60, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingTableSpec(table_id=0, rows=0, dim=4)
        with pytest.raises(ValueError):
            EmbeddingTableSpec(table_id=0, rows=4, dim=0)


class TestEmbeddingTable:
    def test_lookup(self, rng):
        spec = EmbeddingTableSpec(table_id=0, rows=50, dim=4)
        table = EmbeddingTable(spec, rng=rng)
        vectors = table.lookup(np.array([0, 3, 49]))
        assert vectors.shape == (3, 4)
        assert np.allclose(vectors[0], table.weights[0])

    def test_lookup_out_of_range(self, rng):
        table = EmbeddingTable(EmbeddingTableSpec(table_id=0, rows=10, dim=2), rng=rng)
        with pytest.raises(IndexError):
            table.lookup(np.array([10]))

    def test_explicit_weights_shape_checked(self):
        spec = EmbeddingTableSpec(table_id=0, rows=4, dim=2)
        with pytest.raises(ValueError):
            EmbeddingTable(spec, weights=np.zeros((3, 2)))

    def test_slice_preserves_rows(self, rng):
        table = EmbeddingTable(EmbeddingTableSpec(table_id=1, rows=20, dim=3), rng=rng)
        shard = table.slice(5, 12)
        assert shard.spec.rows == 7
        assert np.allclose(shard.weights, table.weights[5:12])
        with pytest.raises(ValueError):
            table.slice(12, 5)
        with pytest.raises(ValueError):
            table.slice(3, 3)

    def test_permuted(self, rng):
        table = EmbeddingTable(EmbeddingTableSpec(table_id=0, rows=5, dim=2), rng=rng)
        perm = np.array([4, 3, 2, 1, 0])
        shuffled = table.permuted(perm)
        assert np.allclose(shuffled.weights[0], table.weights[4])
        with pytest.raises(ValueError):
            table.permuted(np.array([0, 0, 1, 2, 3]))


class TestEmbeddingBag:
    def test_sum_pooling(self, rng):
        table = EmbeddingTable(EmbeddingTableSpec(table_id=0, rows=10, dim=2), rng=rng)
        bag = EmbeddingBag(table)
        indices = np.array([1, 2, 3, 4])
        offsets = np.array([0, 2])
        pooled = bag(indices, offsets)
        assert pooled.shape == (2, 2)
        assert np.allclose(pooled[0], table.weights[1] + table.weights[2])
        assert np.allclose(pooled[1], table.weights[3] + table.weights[4])

    def test_mean_pooling(self, rng):
        table = EmbeddingTable(EmbeddingTableSpec(table_id=0, rows=10, dim=2), rng=rng)
        bag = EmbeddingBag(table, pooling_mode="mean")
        pooled = bag(np.array([0, 1]), np.array([0]))
        assert np.allclose(pooled[0], table.weights[:2].mean(axis=0))

    def test_empty_sample_yields_zero_vector(self, rng):
        table = EmbeddingTable(EmbeddingTableSpec(table_id=0, rows=10, dim=3), rng=rng)
        bag = EmbeddingBag(table)
        pooled = bag(np.array([5]), np.array([0, 1]))
        assert np.allclose(pooled[1], 0.0)

    def test_invalid_pooling_mode(self, rng):
        table = EmbeddingTable(EmbeddingTableSpec(table_id=0, rows=4, dim=2), rng=rng)
        with pytest.raises(ValueError):
            EmbeddingBag(table, pooling_mode="max")

    def test_invalid_offsets(self, rng):
        table = EmbeddingTable(EmbeddingTableSpec(table_id=0, rows=4, dim=2), rng=rng)
        bag = EmbeddingBag(table)
        with pytest.raises(ValueError):
            bag(np.array([0, 1]), np.array([1, 2]))
        with pytest.raises(ValueError):
            bag(np.array([0, 1]), np.array([], dtype=np.int64))
