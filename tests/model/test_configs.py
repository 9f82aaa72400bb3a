"""Tests for the Table I / Table II workload configurations."""

from __future__ import annotations

import pytest

from repro.model.configs import (
    LOCALITY_PRESETS,
    MICROBENCHMARK_MLP_PRESETS,
    MICROBENCHMARK_SHARD_COUNTS,
    MICROBENCHMARK_TABLE_COUNTS,
    DLRMConfig,
    EmbeddingConfig,
    MLPConfig,
    microbenchmark,
    rm1,
    rm2,
    rm3,
    workload_presets,
)


class TestMLPConfig:
    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            MLPConfig(())
        with pytest.raises(ValueError):
            MLPConfig((0, 2))

    def test_parameter_count(self):
        mlp = MLPConfig((4, 2))
        # 3 -> 4 -> 2: (3*4 + 4) + (4*2 + 2) = 26
        assert mlp.num_parameters(3) == 26

    def test_flops_per_sample(self):
        mlp = MLPConfig((4, 2))
        assert mlp.flops_per_sample(3) == 2 * (3 * 4 + 4 * 2)

    def test_str_roundtrip(self):
        assert str(MLPConfig((256, 64, 1))) == "256-64-1"

    def test_dims_with_input_validation(self):
        with pytest.raises(ValueError):
            MLPConfig((4,)).dims_with_input(0)


class TestEmbeddingConfig:
    def test_sizes(self):
        emb = EmbeddingConfig(num_tables=2, rows_per_table=1000, embedding_dim=8, pooling=4, locality=0.9)
        assert emb.bytes_per_table == 1000 * 8 * 4
        assert emb.total_bytes == 2 * emb.bytes_per_table
        assert emb.total_gb == pytest.approx(emb.total_bytes / 1e9)

    def test_distribution_matches_locality(self):
        emb = EmbeddingConfig(num_tables=1, rows_per_table=100_000, embedding_dim=8, pooling=4, locality=0.8)
        assert emb.access_distribution().locality() == pytest.approx(0.8, abs=0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tables": 0},
            {"rows_per_table": 0},
            {"embedding_dim": 0},
            {"pooling": 0},
            {"locality": 0.0},
            {"locality": 1.5},
            {"dtype_bytes": 0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(num_tables=1, rows_per_table=10, embedding_dim=4, pooling=2, locality=0.5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            EmbeddingConfig(**base)


class TestTable2Workloads:
    def test_rm1_matches_table_ii(self):
        config = rm1()
        assert config.bottom_mlp.layer_sizes == (256, 128, 32)
        assert config.top_mlp.layer_sizes == (256, 64, 1)
        assert config.embedding.num_tables == 10
        assert config.embedding.rows_per_table == 20_000_000
        assert config.embedding.embedding_dim == 32
        assert config.embedding.pooling == 128
        assert config.embedding.locality == pytest.approx(0.90)

    def test_rm2_matches_table_ii(self):
        config = rm2()
        assert config.embedding.num_tables == 32
        assert config.top_mlp.layer_sizes == (512, 128, 1)
        assert config.embedding.pooling == 128

    def test_rm3_matches_table_ii(self):
        config = rm3()
        assert config.bottom_mlp.layer_sizes == (2560, 512, 32)
        assert config.embedding.pooling == 32
        assert config.embedding.num_tables == 10

    def test_presets_keyed_by_name(self):
        presets = workload_presets()
        assert set(presets) == {"RM1", "RM2", "RM3"}

    def test_embedding_tables_are_2_56_gb(self):
        assert rm1().embedding.bytes_per_table == pytest.approx(2.56e9)

    def test_structural_dimensions(self):
        config = rm1()
        assert config.num_feature_vectors == 11
        assert config.num_interaction_pairs == 55
        assert config.top_mlp_input_dim == 32 + 55

    def test_bottom_mlp_must_project_to_embedding_dim(self):
        with pytest.raises(ValueError):
            DLRMConfig(
                name="bad",
                bottom_mlp=MLPConfig((64, 16)),
                top_mlp=MLPConfig((8, 1)),
                embedding=EmbeddingConfig(
                    num_tables=1, rows_per_table=10, embedding_dim=32, pooling=2, locality=0.5
                ),
            )


class TestMicrobenchmark:
    def test_presets_exist(self):
        assert set(MICROBENCHMARK_MLP_PRESETS) == {"light", "medium", "heavy"}
        assert set(LOCALITY_PRESETS) == {"low", "medium", "high"}
        assert MICROBENCHMARK_TABLE_COUNTS == (1, 4, 10, 16)
        assert MICROBENCHMARK_SHARD_COUNTS == (1, 2, 4, 8, 16)

    def test_default_is_rm1_derived(self):
        config = microbenchmark()
        assert config.bottom_mlp.layer_sizes == rm1().bottom_mlp.layer_sizes
        assert config.embedding.locality == pytest.approx(0.90)
        assert config.embedding.num_tables == 10

    def test_variants(self):
        light = microbenchmark(mlp_size="light", locality="low", num_tables=4)
        assert light.bottom_mlp.layer_sizes == (64, 32, 32)
        assert light.embedding.locality == pytest.approx(0.10)
        assert light.embedding.num_tables == 4
        assert "light" in light.name

    def test_unknown_presets_rejected(self):
        with pytest.raises(ValueError):
            microbenchmark(mlp_size="enormous")
        with pytest.raises(ValueError):
            microbenchmark(locality="extreme")

    def test_config_transformations(self):
        config = rm1()
        assert config.scaled_tables(3).embedding.num_tables == 3
        assert config.with_locality(0.5).embedding.locality == 0.5
        assert config.with_name("other").name == "other"

    def test_query_generator_respects_override(self):
        generator = rm1().query_generator(seed=0, rows_override=100)
        query = generator.generate()
        assert query.sparse_lookups[0].indices.max() < 100
