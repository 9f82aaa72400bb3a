"""Tests for HPA target construction (Section IV-D)."""

from __future__ import annotations

import pytest

from repro.core.hpa_policy import DENSE_LATENCY_SLA_FRACTION, HPATarget, build_hpa_target


class TestHPATarget:
    def test_throughput_target(self):
        assert HPATarget(metric="qps", target_value=25.0).is_throughput_target

    def test_latency_target(self):
        assert not HPATarget(metric="p95_latency", target_value=0.26).is_throughput_target

    def test_validation(self):
        with pytest.raises(ValueError):
            HPATarget(metric="cpu", target_value=1.0)
        with pytest.raises(ValueError):
            HPATarget(metric="qps", target_value=0.0)


class TestBuildHPATarget:
    def test_sparse_uses_qps_max(self):
        target = build_hpa_target("sparse", shard_max_qps=23.5)
        assert target.metric == "qps"
        assert target.target_value == pytest.approx(23.5)

    def test_monolithic_uses_qps(self):
        target = build_hpa_target("monolithic", shard_max_qps=12.0)
        assert target.is_throughput_target

    def test_dense_uses_65_percent_of_sla(self):
        """The paper sets the dense shard's latency target to 65% of the SLA."""
        target = build_hpa_target("dense", sla_s=0.4)
        assert target.metric == "p95_latency"
        assert target.target_value == pytest.approx(0.4 * DENSE_LATENCY_SLA_FRACTION)
        assert DENSE_LATENCY_SLA_FRACTION == pytest.approx(0.65)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_hpa_target("sparse")
        with pytest.raises(ValueError):
            build_hpa_target("dense")
        with pytest.raises(ValueError):
            build_hpa_target("dense", sla_s=0.4, latency_fraction=0.0)
        with pytest.raises(ValueError):
            build_hpa_target("unknown-role", shard_max_qps=1.0)
