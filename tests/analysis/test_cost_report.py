"""Tests for server-count / cost accounting and report formatting."""

from __future__ import annotations

import pytest

from repro.analysis.cost import deployment_cost, servers_required
from repro.analysis.report import format_ratio, format_table
from repro.core.planner import ElasticRecPlanner
from repro.core.baseline import ModelWisePlanner


class TestServersRequired:
    def test_positive_and_bounded_by_replicas(self, small_elastic_plan):
        servers = servers_required(small_elastic_plan)
        assert 1 <= servers <= small_elastic_plan.total_replicas

    def test_scales_with_target(self, cpu_cluster, small_config):
        planner = ElasticRecPlanner(cpu_cluster)
        low = servers_required(planner.plan(small_config, 50))
        high = servers_required(planner.plan(small_config, 300))
        assert high >= low

    def test_gpu_plans_need_gpu_nodes(self, gpu_cluster, small_config):
        plan = ModelWisePlanner(gpu_cluster).plan(small_config, 200)
        servers = servers_required(plan)
        # Each monolithic replica needs its own GPU, one per node.
        assert servers == plan.total_replicas


class TestDeploymentCost:
    def test_cpu_cost_equals_server_count(self, small_elastic_plan):
        estimate = deployment_cost(small_elastic_plan)
        assert estimate.relative_cost == pytest.approx(estimate.num_servers)
        assert estimate.strategy == "elasticrec"

    def test_gpu_cost_scaled_by_price_factor(self, gpu_cluster, small_config):
        plan = ModelWisePlanner(gpu_cluster).plan(small_config, 100)
        estimate = deployment_cost(plan, gpu_node_price_factor=3.0)
        assert estimate.relative_cost == pytest.approx(3.0 * estimate.num_servers)

    def test_invalid_price_factor(self, small_elastic_plan):
        with pytest.raises(ValueError):
            deployment_cost(small_elastic_plan, gpu_node_price_factor=0.0)


class TestReportFormatting:
    def test_format_table_aligns_columns(self):
        rows = [
            {"model": "RM1", "memory_gb": 123.456, "reduction": 2.2},
            {"model": "RM2", "memory_gb": 1234.5, "reduction": 10.0},
        ]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "model" in lines[1] and "memory_gb" in lines[1]
        assert len(lines) == 2 + 2 + 1  # title + header + separator + 2 rows

    def test_format_table_empty(self):
        assert format_table([], title="empty") == "empty"

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_ints_get_thousands_separators(self):
        rows = [{"queries": 1471, "big": 1234567, "small": 999, "neg": -1500, "ok": True}]
        cells = format_table(rows).splitlines()[2].split()
        assert cells == ["1,471", "1,234,567", "999", "-1,500", "True"]

    def test_format_ratio(self):
        assert format_ratio(330.0, 100.0) == "3.3x"
        with pytest.raises(ValueError):
            format_ratio(1.0, 0.0)
