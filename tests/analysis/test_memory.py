"""Tests for memory-consumption accounting."""

from __future__ import annotations

import pytest

from repro.analysis.memory import memory_breakdown, memory_consumption_gb


class TestMemoryBreakdown:
    def test_elastic_plan_split_by_role(self, small_elastic_plan):
        breakdown = memory_breakdown(small_elastic_plan)
        assert breakdown.monolithic_gb == 0.0
        assert breakdown.dense_gb > 0
        assert breakdown.embedding_gb > 0
        assert breakdown.total_gb == pytest.approx(small_elastic_plan.total_memory_gb)

    def test_model_wise_plan_is_monolithic_only(self, small_model_wise_plan):
        breakdown = memory_breakdown(small_model_wise_plan)
        assert breakdown.dense_gb == 0.0
        assert breakdown.embedding_gb == 0.0
        assert breakdown.monolithic_gb == pytest.approx(small_model_wise_plan.total_memory_gb)

    def test_embedding_dominates_elastic_memory(self, small_elastic_plan):
        """The dense shards are tiny; embedding shards hold nearly all memory."""
        breakdown = memory_breakdown(small_elastic_plan)
        assert breakdown.embedding_gb > breakdown.dense_gb

    def test_consumption_helper(self, small_elastic_plan):
        assert memory_consumption_gb(small_elastic_plan) == pytest.approx(
            small_elastic_plan.total_memory_gb
        )

    def test_elasticrec_beats_model_wise(self, small_elastic_plan, small_model_wise_plan):
        """The headline claim at small scale: ElasticRec allocates less memory."""
        assert memory_consumption_gb(small_elastic_plan) < memory_consumption_gb(
            small_model_wise_plan
        )
