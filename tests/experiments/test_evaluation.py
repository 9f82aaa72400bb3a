"""Tests for the paper-scale evaluation experiments (Figures 12-20, headline).

These check the real experiment code on the real Table II workloads.  Each
default-argument result comes from the session's ``all_results`` fixture
(the same run the golden digests check), so no experiment runs twice; the
assertions check the *shape* of the paper's results (who wins, orderings,
rough factors), not exact numbers.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig12
from repro.experiments.runner import EXPERIMENTS, run_experiment


class TestFig12Microbenchmarks:
    def test_mlp_size_sweep(self):
        result = fig12.run_mlp_size()
        assert [r["mlp_size"] for r in result.rows] == ["light", "medium", "heavy"]
        # Model-wise memory grows much faster with MLP size than ElasticRec's.
        assert result.summary["model_wise_growth"] > result.summary["elasticrec_growth"]
        for row in result.rows:
            assert row["reduction"] > 1.0

    def test_locality_sweep(self):
        result = fig12.run_locality()
        reductions = [r["reduction"] for r in result.rows]
        # Savings grow with locality; the baseline barely moves.
        assert reductions[-1] > reductions[0]
        assert result.summary["model_wise_spread"] == pytest.approx(1.0, abs=0.2)

    def test_table_count_sweep(self):
        result = fig12.run_num_tables()
        assert [r["num_tables"] for r in result.rows] == [1, 4, 10, 16]
        assert all(r["reduction"] > 1.0 for r in result.rows)
        gaps = [r["model_wise_gb"] - r["elasticrec_gb"] for r in result.rows]
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))

    def test_shard_count_sweep(self):
        result = fig12.run_num_shards()
        assert [r["num_shards"] for r in result.rows] == [1, 2, 4, 8, 16]
        memories = {r["num_shards"]: r["elasticrec_gb"] for r in result.rows}
        # Partitioning helps over the monolithic single shard...
        assert memories[4] < memories[1]
        # ...and the DP-chosen plan is at least as good as any forced count.
        assert result.summary["dp_chosen_gb"] <= min(memories.values()) * 1.02

    def test_combined_runner(self, all_results):
        result = all_results["fig12"]
        assert {r["panel"] for r in result.rows} == {"fig12a", "fig12b", "fig12c", "fig12d"}


class TestCpuOnlyEvaluation:
    def test_fig13_memory_reductions(self, all_results):
        result = all_results["fig13"]
        reductions = {r["model"]: r["reduction"] for r in result.rows}
        # ElasticRec wins for every workload, most on RM3 (paper: 2.2/2.6/8.1x).
        assert all(value > 1.5 for value in reductions.values())
        assert reductions["RM3"] == max(reductions.values())
        assert 2.0 < result.summary["geomean_reduction"] < 8.0

    def test_fig14_utility(self, all_results):
        result = all_results["fig14"]
        baseline_rows = [r for r in result.rows if r["strategy"] == "model-wise"]
        elastic_hot = [
            r for r in result.rows if r["strategy"] == "elasticrec" and r["shard"] == "S1"
        ]
        # Baseline utility is a few percent; hot shards are far better utilised.
        assert all(r["memory_utility_pct"] < 20 for r in baseline_rows)
        assert all(r["memory_utility_pct"] > 3 * baseline_rows[0]["memory_utility_pct"] for r in elastic_hot)
        assert result.summary["geomean_utility_gain"] > 3.0

    def test_fig14_replicas_proportional_to_hotness(self, all_results):
        result = all_results["fig14"]
        for model in ("RM1", "RM2", "RM3"):
            shards = [
                r for r in result.rows if r["strategy"] == "elasticrec" and r["model"] == model
            ]
            assert shards[0]["replicas"] == max(s["replicas"] for s in shards)

    def test_fig15_server_reduction(self, all_results):
        result = all_results["fig15"]
        by_model = {r["model"]: r for r in result.rows}
        # ElasticRec needs no more servers anywhere and strictly fewer for RM1/RM3.
        for model, row in by_model.items():
            assert row["elasticrec_servers"] <= row["model_wise_servers"] * 1.1
        assert by_model["RM1"]["reduction"] > 1.2
        assert by_model["RM3"]["reduction"] > 1.2


class TestCpuGpuEvaluation:
    def test_fig16_memory_reductions(self, all_results):
        result = all_results["fig16"]
        for row in result.rows:
            assert row["reduction"] > 1.2
        # RM3's gain is smaller than on CPU-only (paper: 8.1x -> 2.6x).
        cpu_only = {r["model"]: r["reduction"] for r in all_results["fig13"].rows}
        gpu = {r["model"]: r["reduction"] for r in result.rows}
        assert gpu["RM3"] < cpu_only["RM3"]

    def test_fig17_utility(self, all_results):
        result = all_results["fig17"]
        assert result.experiment_id == "fig17"
        assert result.summary["geomean_utility_gain"] > 3.0

    def test_fig18_runs_and_reports_paper_reference(self, all_results):
        result = all_results["fig18"]
        assert {r["model"] for r in result.rows} == {"RM1", "RM2", "RM3"}
        for row in result.rows:
            assert row["paper_reduction"] in (1.4, 1.6, 1.2)
            assert row["rpc_overhead_ms"] == pytest.approx(60.0)

    def test_fig20_cache_comparison(self, all_results):
        result = all_results["fig20"]
        for row in result.rows:
            # The cache shrinks the baseline substantially (paper: 41%)...
            assert 0.25 < row["cache_saving_vs_mw"] < 0.6
            # ...but ElasticRec remains the most memory-efficient for RM1/RM2
            # and is at least competitive for RM3.
            assert row["elasticrec_vs_cache"] > 0.85
        assert result.summary["geomean_elasticrec_vs_cache"] > 1.0


class TestDynamicTrafficAndHeadline:
    def test_fig19_reduced_mode(self, all_results):
        result = all_results["fig19"]
        summary = result.summary
        # ElasticRec uses less memory at peak and violates the SLA less often.
        assert summary["peak_memory_ratio"] > 1.2
        assert (
            summary["elasticrec_sla_violation_fraction"]
            < summary["model_wise_sla_violation_fraction"]
        )
        strategies = {r["strategy"] for r in result.rows}
        assert strategies == {"elasticrec", "model-wise"}

    def test_headline_aggregates(self, all_results):
        result = all_results["headline"]
        summary = result.summary
        assert summary["average_memory_reduction"] > 2.0
        assert summary["average_utility_gain"] > 3.0
        assert len(result.rows) == 6


class TestRunner:
    def test_registry_covers_every_figure(self):
        expected = {
            "fig3", "fig5", "fig6", "fig9", "fig12", "fig13", "fig14", "fig15",
            "fig16", "fig17", "fig18", "fig19", "fig20", "headline", "ablation",
            "multitenant", "resilience", "skew", "cache", "replan",
            "watchdog",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_run_experiment_dispatches(self):
        result = run_experiment("fig5")
        assert result.experiment_id == "fig5"
