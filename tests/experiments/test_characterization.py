"""Tests for the characterisation experiments (Figures 3, 5, 6, 9).

Each figure's result comes from the session's ``all_results`` fixture, the
same run the golden digests check.
"""

from __future__ import annotations

import pytest


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self, all_results):
        return all_results["fig3"]

    def test_one_row_per_model(self, result):
        assert result.column("model") == ["RM1", "RM2", "RM3"]

    def test_percentages_sum_to_100(self, result):
        for row in result.rows:
            assert row["dense_flops_pct"] + row["sparse_flops_pct"] == pytest.approx(100.0)
            assert row["dense_memory_pct"] + row["sparse_memory_pct"] == pytest.approx(100.0)
            assert row["dense_latency_pct_cpu"] + row["sparse_latency_pct_cpu"] == pytest.approx(100.0)

    def test_paper_shape_dense_flops_dominate(self, result):
        for row in result.rows:
            assert row["dense_flops_pct"] > 75.0

    def test_paper_shape_sparse_memory_dominates(self, result):
        for row in result.rows:
            assert row["sparse_memory_pct"] > 99.0

    def test_paper_shape_gpu_shifts_latency_to_sparse(self, result):
        for row in result.rows:
            assert row["dense_latency_pct_gpu"] < row["dense_latency_pct_cpu"]

    def test_report_renders(self, result):
        text = result.report()
        assert "fig3" in text and "RM1" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self, all_results):
        return all_results["fig5"]

    def test_covers_both_systems(self, result):
        assert set(result.column("system")) == {"cpu", "cpu-gpu"}
        assert len(result.rows) == 6

    def test_qps_mismatch_exists_everywhere(self, result):
        """Figure 5's point: dense and sparse QPS are significantly mismatched."""
        for row in result.rows:
            assert row["qps_mismatch"] > 1.3

    def test_gpu_dense_much_faster_than_cpu_dense(self, result):
        by_key = {(r["system"], r["model"]): r for r in result.rows}
        for model in ("RM1", "RM2", "RM3"):
            assert by_key[("cpu-gpu", model)]["dense_qps"] > 5 * by_key[("cpu", model)]["dense_qps"]

    def test_sparse_qps_unaffected_by_gpu(self, result):
        by_key = {(r["system"], r["model"]): r for r in result.rows}
        for model in ("RM1", "RM2", "RM3"):
            assert by_key[("cpu-gpu", model)]["sparse_qps"] == pytest.approx(
                by_key[("cpu", model)]["sparse_qps"], rel=0.2
            )


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self, all_results):
        return all_results["fig6"]

    def test_all_datasets_present(self, result):
        assert set(result.column("dataset")) == {"amazon-books", "criteo", "movielens"}

    def test_frequency_curves_decrease(self, result):
        for dataset in ("amazon-books", "criteo", "movielens"):
            rows = [
                r for r in result.rows
                if r["dataset"] == dataset and r["sorted_vector_id"] >= 0
            ]
            freqs = [r["access_frequency_pct"] for r in rows]
            assert all(a >= b for a, b in zip(freqs, freqs[1:]))

    def test_movielens_locality_is_94_percent(self, result):
        assert result.summary["movielens_top10pct_coverage"] == pytest.approx(94.0, abs=1.0)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self, all_results):
        return all_results["fig9"]

    def test_dimensions_and_counts(self, result):
        assert set(result.column("embedding_dim")) == {32, 128, 512}

    def test_qps_decreases_with_gathers(self, result):
        for dim in (32, 128, 512):
            rows = [r for r in result.rows if r["embedding_dim"] == dim]
            qps = [r["qps"] for r in rows]
            assert all(a >= b for a, b in zip(qps, qps[1:]))

    def test_larger_dims_slower(self, result):
        at_100 = {
            r["embedding_dim"]: r["qps"]
            for r in result.rows
            if r["num_vectors_gathered"] == 100
        }
        assert at_100[32] > at_100[128] > at_100[512]

    def test_regression_tracks_profile(self, result):
        for row in result.rows:
            assert row["predicted_qps"] == pytest.approx(row["qps"], rel=0.05)
        for key, value in result.summary.items():
            assert value < 0.05, key
