"""Tests for shard specifications and the sharding plan."""

from __future__ import annotations

import pytest

from repro.core.bucketization import Bucketizer
from repro.core.sharding import DenseShardSpec, EmbeddingShardSpec, ShardingPlan
from repro.model.analytics import ModelAnalytics
from repro.model.configs import microbenchmark


@pytest.fixture(scope="module")
def config():
    return microbenchmark(num_tables=2)


def make_shard(config, table_id, shard_index, start, end, coverage):
    return EmbeddingShardSpec(
        model_name=config.name,
        table_id=table_id,
        shard_index=shard_index,
        start_row=start,
        end_row=end,
        embedding_dim=config.embedding.embedding_dim,
        dtype_bytes=config.embedding.dtype_bytes,
        expected_gathers_per_item=coverage * config.embedding.pooling,
        coverage=coverage,
    )


@pytest.fixture(scope="module")
def plan(config):
    rows = config.embedding.rows_per_table
    shards = []
    for table_id in range(2):
        shards.append(make_shard(config, table_id, 0, 0, 1_000_000, 0.9))
        shards.append(make_shard(config, table_id, 1, 1_000_000, rows, 0.1))
    return ShardingPlan(
        config=config,
        dense_shard=DenseShardSpec.from_config(config),
        embedding_shards=tuple(shards),
        table_boundaries=((0, 1_000_000, rows), (0, 1_000_000, rows)),
    )


class TestDenseShardSpec:
    def test_from_config(self, config):
        dense = DenseShardSpec.from_config(config)
        analytics = ModelAnalytics(config)
        assert dense.parameter_bytes == analytics.dense_parameter_bytes()
        assert dense.flops_per_query == analytics.dense_flops_per_query()
        assert dense.name.endswith("-dense")

    def test_validation(self):
        with pytest.raises(ValueError):
            DenseShardSpec(model_name="m", parameter_bytes=0, flops_per_query=1)


class TestEmbeddingShardSpec:
    def test_capacity_and_name(self, config):
        shard = make_shard(config, 0, 1, 100, 400, 0.2)
        assert shard.rows == 300
        assert shard.capacity_bytes == 300 * 32 * 4
        assert shard.name == f"{config.name}-table0-shard1"

    def test_validation(self, config):
        with pytest.raises(ValueError):
            make_shard(config, 0, 0, 10, 10, 0.5)
        with pytest.raises(ValueError):
            make_shard(config, 0, 0, 0, 10, 1.5)
        with pytest.raises(ValueError):
            make_shard(config, -1, 0, 0, 10, 0.5)


class TestShardingPlan:
    def test_structure(self, plan):
        assert plan.num_tables == 2
        assert plan.num_embedding_shards == 4
        assert plan.shards_per_table() == {0: 2, 1: 2}
        shards = plan.shards_for_table(1)
        assert [s.shard_index for s in shards] == [0, 1]

    def test_single_copy_bytes(self, plan, config):
        expected = 2 * config.embedding.rows_per_table * 32 * 4
        assert plan.single_copy_embedding_bytes() == expected

    def test_bucketizer_matches_boundaries(self, plan):
        bucketizer = Bucketizer(plan.table_boundaries[0])
        assert bucketizer.num_shards == 2
        assert bucketizer.num_rows == plan.config.embedding.rows_per_table

    def test_summary(self, plan):
        summary = plan.summary()
        assert summary["num_embedding_shards"] == 4.0
        assert summary["single_copy_embedding_gb"] > 0

    def test_validation_boundary_coverage(self, plan, config):
        with pytest.raises(ValueError):
            ShardingPlan(
                config=config,
                dense_shard=plan.dense_shard,
                embedding_shards=plan.embedding_shards,
                table_boundaries=((0, 100), (0, config.embedding.rows_per_table)),
            )

    def test_validation_shard_count_per_table(self, plan, config):
        rows = config.embedding.rows_per_table
        with pytest.raises(ValueError):
            ShardingPlan(
                config=config,
                dense_shard=plan.dense_shard,
                embedding_shards=plan.embedding_shards[:3],
                table_boundaries=((0, 1_000_000, rows), (0, 1_000_000, rows)),
            )
