"""Tests for the gather and layer profilers."""

from __future__ import annotations

import pytest

from repro.hardware.perf_model import PerfModel
from repro.hardware.profiler import DEFAULT_GATHER_SWEEP, GatherProfiler, LayerProfiler
from repro.hardware.specs import cpu_gpu_cluster, cpu_only_cluster
from repro.model.configs import rm1, rm3


@pytest.fixture(scope="module")
def profiler():
    return GatherProfiler(PerfModel(cpu_only_cluster()), batch_size=32)


class TestGatherProfiler:
    def test_default_sweep_covers_figure9_range(self):
        assert min(DEFAULT_GATHER_SWEEP) == 1
        assert max(DEFAULT_GATHER_SWEEP) == 100

    def test_qps_decreases_with_gathers(self, profiler):
        points = profiler.profile(32)
        qps = [p.qps for p in points]
        assert all(b <= a for a, b in zip(qps, qps[1:]))

    def test_latency_is_inverse_qps(self, profiler):
        for point in profiler.profile(32, (1, 50, 100)):
            assert point.qps == pytest.approx(1.0 / point.latency_s)

    def test_dimension_sweep(self, profiler):
        curves = {dim: profiler.profile(dim, (1, 100)) for dim in (32, 128, 512)}
        assert set(curves) == {32, 128, 512}
        # Larger dimensions are uniformly slower at the same gather count.
        assert curves[32][-1].qps > curves[128][-1].qps > curves[512][-1].qps

    def test_core_constrained_profile_is_slower(self, profiler):
        unconstrained = profiler.profile(32, (100,))[0].qps
        constrained = profiler.profile(32, (100,), cores=1)[0].qps
        assert constrained < unconstrained

    def test_validation(self, profiler):
        with pytest.raises(ValueError):
            profiler.profile(32, ())
        with pytest.raises(ValueError):
            profiler.profile(32, (-1,))
        with pytest.raises(ValueError):
            GatherProfiler(PerfModel(cpu_only_cluster()), batch_size=0)


class TestLayerProfiler:
    def test_layer_qps_positive(self):
        layer = LayerProfiler(PerfModel(cpu_only_cluster()))
        qps = layer.layer_qps(rm1())
        assert qps["dense"] > 0 and qps["sparse"] > 0

    def test_gpu_system_dense_much_faster(self):
        cpu = LayerProfiler(PerfModel(cpu_only_cluster())).layer_qps(rm3())
        gpu = LayerProfiler(PerfModel(cpu_gpu_cluster())).layer_qps(rm3())
        assert gpu["dense"] > 10 * cpu["dense"]

    def test_latency_shares_sum_to_100(self):
        breakdown = PerfModel(cpu_only_cluster()).latency_breakdown(rm1())
        assert breakdown.dense_fraction + breakdown.sparse_fraction == pytest.approx(1.0)
