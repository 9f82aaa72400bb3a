"""Tests for hardware and cluster specifications."""

from __future__ import annotations

import pytest

from repro.hardware.specs import (
    ClusterSpec,
    ContainerPolicy,
    CPUNodeSpec,
    PerfCalibration,
    cpu_gpu_cluster,
    cpu_only_cluster,
    gke_n1_standard_32,
    nvidia_t4,
    xeon_gold_6242,
)


class TestNodePresets:
    def test_cpu_only_node_matches_paper(self):
        node = xeon_gold_6242()
        assert node.cores == 64
        assert node.dram_gb == 384.0
        assert node.memory_bandwidth_gbps == 256.0
        assert node.network_gbps == 10.0
        assert not node.has_gpu

    def test_gke_node_matches_paper(self):
        node = gke_n1_standard_32()
        assert node.cores == 32
        assert node.dram_gb == 120.0
        assert node.network_gbps == 32.0
        assert node.has_gpu
        assert node.gpu.name == "NVIDIA-T4"

    def test_t4_spec(self):
        gpu = nvidia_t4()
        assert gpu.hbm_gb == 16.0
        assert gpu.fp32_tflops > 0

    def test_node_validation(self):
        with pytest.raises(ValueError):
            CPUNodeSpec(name="bad", cores=0, dram_gb=1, memory_bandwidth_gbps=1, network_gbps=1)
        with pytest.raises(ValueError):
            CPUNodeSpec(
                name="bad", cores=2, dram_gb=1, memory_bandwidth_gbps=1, network_gbps=1,
                gpu=nvidia_t4(), gpus_per_node=0,
            )


class TestContainerPolicy:
    def test_startup_grows_with_model_size(self):
        policy = ContainerPolicy()
        assert policy.startup_seconds(26.0) > policy.startup_seconds(1.0) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ContainerPolicy(model_wise_cores=0)
        with pytest.raises(ValueError):
            ContainerPolicy(min_mem_alloc_gb=-1)
        with pytest.raises(ValueError):
            ContainerPolicy(hpa_target_fraction=0.0)
        with pytest.raises(ValueError):
            ContainerPolicy().startup_seconds(-1)


class TestPerfCalibration:
    def test_defaults_valid(self):
        PerfCalibration()

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfCalibration(cpu_dense_gflops_at_reference=0)
        with pytest.raises(ValueError):
            PerfCalibration(colocation_interference=0)
        with pytest.raises(ValueError):
            PerfCalibration(gpu_cache_hit_rate=1.5)
        with pytest.raises(ValueError):
            PerfCalibration(cpu_dense_parallel_exponent=1.5)


class TestClusterPresets:
    def test_cpu_only_cluster(self):
        cluster = cpu_only_cluster()
        assert cluster.system == "cpu"
        assert cluster.num_nodes == 11
        assert not cluster.is_gpu_system
        assert cluster.sla_ms == 400.0
        assert cluster.total_cores == 11 * 64

    def test_cpu_gpu_cluster(self):
        cluster = cpu_gpu_cluster()
        assert cluster.system == "cpu-gpu"
        assert cluster.num_nodes == 20
        assert cluster.is_gpu_system
        assert cluster.node.has_gpu

    def test_with_nodes(self):
        assert cpu_only_cluster().with_nodes(3).num_nodes == 3

    def test_sla_in_seconds(self):
        assert cpu_only_cluster().sla_s == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(name="x", node=xeon_gold_6242(), num_nodes=1, system="tpu")
        with pytest.raises(ValueError):
            ClusterSpec(name="x", node=xeon_gold_6242(), num_nodes=0, system="cpu")
        with pytest.raises(ValueError):
            ClusterSpec(name="x", node=xeon_gold_6242(), num_nodes=1, system="cpu-gpu")
