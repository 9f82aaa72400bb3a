"""Tests for bucketization (Figure 11)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucketization import Bucketizer, merge_pooled
from repro.model.embedding import EmbeddingBag, EmbeddingTable, EmbeddingTableSpec


class TestPaperExample:
    """The worked example of Figure 11: a 10-row table split into shards of 6 and 4."""

    def setup_method(self):
        self.bucketizer = Bucketizer([0, 6, 10])
        self.indices = np.array([1, 7, 3, 4, 8])
        self.offsets = np.array([0, 2])

    def test_shard_routing(self):
        routed = self.bucketizer.bucketize(self.indices, self.offsets)
        shard_a, shard_b = routed
        assert shard_a.indices.tolist() == [1, 3, 4]
        assert shard_a.offsets.tolist() == [0, 1]
        # Shard B's ids are rebased by the size of shard A (6).
        assert shard_b.indices.tolist() == [7 - 6, 8 - 6]
        assert shard_b.offsets.tolist() == [0, 1]

    def test_shard_of(self):
        assert self.bucketizer.shard_of(self.indices).tolist() == [0, 1, 0, 0, 1]


class TestBucketizerValidation:
    def test_boundaries_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Bucketizer([1, 5])
        with pytest.raises(ValueError):
            Bucketizer([0])
        with pytest.raises(ValueError):
            Bucketizer([0, 5, 5])

    def test_indices_out_of_range(self):
        bucketizer = Bucketizer([0, 5, 10])
        with pytest.raises(IndexError):
            bucketizer.bucketize(np.array([10]), np.array([0]))

    def test_offsets_validated(self):
        bucketizer = Bucketizer([0, 5, 10])
        with pytest.raises(ValueError):
            bucketizer.bucketize(np.array([1, 2]), np.array([1, 2]))
        with pytest.raises(ValueError):
            bucketizer.bucketize(np.array([1, 2]), np.array([], dtype=np.int64))

    def test_rank_of_row_must_be_permutation(self):
        with pytest.raises(ValueError):
            Bucketizer([0, 5], rank_of_row=np.array([0, 0, 1, 2, 3]))
        with pytest.raises(ValueError):
            Bucketizer([0, 5], rank_of_row=np.arange(3))

    def test_properties(self):
        bucketizer = Bucketizer([0, 2, 7, 9])
        assert bucketizer.num_shards == 3
        assert bucketizer.num_rows == 9
        assert bucketizer.boundaries.tolist() == [0, 2, 7, 9]


class TestPermutationHandling:
    def test_unsorted_table_is_remapped(self):
        # Original row ids 0..3; hotness order says row 2 is hottest, then 0, 3, 1.
        permutation = np.array([2, 0, 3, 1])  # sorted rank -> original row
        bucketizer = Bucketizer.from_permutation([0, 2, 4], permutation)
        shard_ids = bucketizer.shard_of(np.array([2, 0, 3, 1]))
        assert shard_ids.tolist() == [0, 0, 1, 1]

    def test_roundtrip_with_permutation(self, rng):
        rows, dim = 40, 4
        spec = EmbeddingTableSpec(table_id=0, rows=rows, dim=dim)
        table = EmbeddingTable(spec, rng=rng)
        permutation = rng.permutation(rows)
        sorted_table = table.permuted(permutation)
        boundaries = [0, 10, 25, rows]
        bucketizer = Bucketizer.from_permutation(boundaries, permutation)
        bags = [
            EmbeddingBag(sorted_table.slice(start, end))
            for start, end in zip(boundaries[:-1], boundaries[1:])
        ]
        indices = rng.integers(0, rows, size=24)
        offsets = np.array([0, 6, 13, 20])
        monolithic = EmbeddingBag(table)(indices, offsets)
        routed = bucketizer.bucketize(indices, offsets)
        sharded = merge_pooled([bags[r.shard_index](r.indices, r.offsets) for r in routed])
        assert np.allclose(monolithic, sharded)


class TestMergePooled:
    def test_merge_is_sum(self, rng):
        parts = [rng.normal(size=(3, 4)) for _ in range(3)]
        assert np.allclose(merge_pooled(parts), np.sum(parts, axis=0))

    def test_merge_validation(self, rng):
        with pytest.raises(ValueError):
            merge_pooled([])
        with pytest.raises(ValueError):
            merge_pooled([rng.normal(size=(2, 3)), rng.normal(size=(3, 3))])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bucketized_embedding_bag_matches_monolithic(data):
    """Property: shard-and-merge is exactly equivalent to the monolithic lookup."""
    rows = data.draw(st.integers(min_value=4, max_value=60), label="rows")
    dim = data.draw(st.integers(min_value=1, max_value=8), label="dim")
    batch = data.draw(st.integers(min_value=1, max_value=6), label="batch")
    num_cuts = data.draw(st.integers(min_value=0, max_value=3), label="cuts")
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=1, max_value=rows - 1),
                min_size=num_cuts,
                max_size=num_cuts,
                unique=True,
            ),
            label="cut_positions",
        )
    )
    boundaries = [0] + cuts + [rows]
    lengths = data.draw(
        st.lists(st.integers(min_value=0, max_value=8), min_size=batch, max_size=batch),
        label="lengths",
    )
    total = sum(lengths)
    indices = np.array(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=rows - 1), min_size=total, max_size=total
            ),
            label="indices",
        ),
        dtype=np.int64,
    )
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)

    rng = np.random.default_rng(0)
    table = EmbeddingTable(EmbeddingTableSpec(table_id=0, rows=rows, dim=dim), rng=rng)
    monolithic = EmbeddingBag(table)(indices, offsets)

    bucketizer = Bucketizer(boundaries)
    routed = bucketizer.bucketize(indices, offsets)
    assert sum(r.num_lookups for r in routed) == indices.size
    shards = [
        EmbeddingBag(table.slice(start, end))
        for start, end in zip(boundaries[:-1], boundaries[1:])
    ]
    sharded = merge_pooled([shards[r.shard_index](r.indices, r.offsets) for r in routed])
    assert np.allclose(monolithic, sharded)
