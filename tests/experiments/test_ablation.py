"""Tests for the partitioning-strategy ablation experiment."""

from __future__ import annotations

import pytest

from repro.experiments import ablation
from repro.model.configs import microbenchmark


class TestAblation:
    @pytest.fixture(scope="class")
    def result(self):
        # A smaller workload keeps the ablation fast while preserving the shape.
        return ablation.run(workload=microbenchmark(num_tables=4))

    def test_all_strategies_reported(self, result):
        assert [r["strategy"] for r in result.rows] == [
            "model-wise",
            "none",
            "uniform",
            "threshold",
            "dp",
        ]

    def test_microservices_alone_already_help(self, result):
        by_strategy = {r["strategy"]: r["memory_gb"] for r in result.rows}
        assert by_strategy["none"] < by_strategy["model-wise"]
        assert by_strategy["model-wise"] == max(by_strategy.values())

    def test_hotness_aware_beats_oblivious(self, result):
        by_strategy = {r["strategy"]: r["memory_gb"] for r in result.rows}
        assert by_strategy["dp"] < by_strategy["uniform"]
        assert by_strategy["dp"] < by_strategy["none"]

    def test_dp_is_best_or_tied(self, result):
        by_strategy = {r["strategy"]: r["memory_gb"] for r in result.rows}
        best = min(by_strategy.values())
        assert by_strategy["dp"] <= best * 1.02

    def test_summary_ratios(self, result):
        assert result.summary["dp_vs_model_wise"] > 1.0
        assert result.summary["dp_vs_uniform"] >= 1.0
