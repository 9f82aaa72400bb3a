"""Tests for query generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.distributions import ZipfDistribution
from repro.data.query_gen import Query, QueryGenerator, SparseLookup, TableWorkload


def _workloads(num_tables=2, rows=1000, pooling=4):
    dist = ZipfDistribution.from_locality(rows, 0.9)
    return [TableWorkload(table_id=t, distribution=dist, pooling=pooling) for t in range(num_tables)]


class TestSparseLookup:
    def test_valid_lookup(self):
        lookup = SparseLookup(table_id=0, indices=np.array([1, 7, 3, 4, 8]), offsets=np.array([0, 2]))
        assert lookup.batch_size == 2
        assert lookup.num_lookups == 5

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError):
            SparseLookup(table_id=0, indices=np.arange(4), offsets=np.array([1, 2]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(ValueError):
            SparseLookup(table_id=0, indices=np.arange(4), offsets=np.array([0, 3, 2]))

    def test_offsets_must_stay_in_range(self):
        with pytest.raises(ValueError):
            SparseLookup(table_id=0, indices=np.arange(4), offsets=np.array([0, 9]))


class TestQuery:
    def test_query_validation(self):
        lookup = SparseLookup(table_id=0, indices=np.arange(6), offsets=np.array([0, 3]))
        query = Query(query_id=0, dense_input=np.zeros((2, 4)), sparse_lookups=(lookup,))
        assert query.batch_size == 2
        assert query.num_tables == 1

    def test_mismatched_batch_rejected(self):
        lookup = SparseLookup(table_id=0, indices=np.arange(6), offsets=np.array([0, 2, 4]))
        with pytest.raises(ValueError):
            Query(query_id=0, dense_input=np.zeros((2, 4)), sparse_lookups=(lookup,))


class TestQueryGenerator:
    def test_generates_expected_shapes(self):
        generator = QueryGenerator(_workloads(), batch_size=8, num_dense_features=13, seed=0)
        query = generator.generate()
        assert query.batch_size == 8
        assert query.dense_input.shape == (8, 13)
        assert query.num_tables == 2
        for lookup in query.sparse_lookups:
            assert lookup.num_lookups == 8 * 4
            assert lookup.offsets.tolist() == list(range(0, 32, 4))

    def test_indices_within_table(self):
        generator = QueryGenerator(_workloads(rows=50), seed=1)
        query = generator.generate()
        for lookup in query.sparse_lookups:
            assert lookup.indices.min() >= 0
            assert lookup.indices.max() < 50

    def test_deterministic_for_seed(self):
        a = QueryGenerator(_workloads(), seed=5).generate()
        b = QueryGenerator(_workloads(), seed=5).generate()
        assert np.array_equal(a.dense_input, b.dense_input)
        assert np.array_equal(a.sparse_lookups[0].indices, b.sparse_lookups[0].indices)

    def test_query_ids_increment(self):
        generator = QueryGenerator(_workloads(), seed=0)
        queries = [generator.generate() for _ in range(3)]
        assert [q.query_id for q in queries] == [0, 1, 2]

    def test_stream_is_infinite_iterator(self):
        generator = QueryGenerator(_workloads(), seed=0)
        stream = generator.stream()
        assert next(stream).query_id == 0
        assert next(stream).query_id == 1

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            QueryGenerator([], seed=0)
        with pytest.raises(ValueError):
            QueryGenerator(_workloads(), batch_size=0)
        with pytest.raises(ValueError):
            QueryGenerator(_workloads(), num_dense_features=0)
        with pytest.raises(ValueError):
            TableWorkload(table_id=0, distribution=ZipfDistribution(10, 1.0), pooling=0)
