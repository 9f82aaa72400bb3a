"""Tests for the serving performance model."""

from __future__ import annotations

import pytest

from repro.hardware.perf_model import PerfModel
from repro.model.configs import microbenchmark, rm1, rm2, rm3


@pytest.fixture(scope="module")
def cpu_perf(cpu_cluster=None):
    from repro.hardware.specs import cpu_only_cluster

    return PerfModel(cpu_only_cluster())


@pytest.fixture(scope="module")
def gpu_perf():
    from repro.hardware.specs import cpu_gpu_cluster

    return PerfModel(cpu_gpu_cluster())


class TestDenseLatency:
    def test_latency_grows_with_flops(self, cpu_perf):
        light = microbenchmark(mlp_size="light")
        heavy = microbenchmark(mlp_size="heavy")
        assert cpu_perf.dense_query_latency(heavy) > cpu_perf.dense_query_latency(light)

    def test_more_cores_is_faster(self, cpu_perf):
        config = rm1()
        assert cpu_perf.dense_query_latency(config, cores=48) < cpu_perf.dense_query_latency(
            config, cores=8
        )

    def test_gpu_is_much_faster_for_dense(self, gpu_perf):
        config = rm3()
        cpu_latency = gpu_perf.dense_query_latency(config, use_gpu=False, cores=28)
        gpu_latency = gpu_perf.dense_query_latency(config, use_gpu=True)
        assert gpu_latency < cpu_latency / 5

    def test_gpu_request_requires_gpu_node(self, cpu_perf):
        with pytest.raises(ValueError):
            cpu_perf.dense_query_latency(rm1(), use_gpu=True)

    def test_invalid_cores(self, cpu_perf):
        with pytest.raises(ValueError):
            cpu_perf.dense_query_latency(rm1(), cores=0)

    def test_dense_qps_is_inverse_latency(self, cpu_perf):
        config = rm1()
        assert cpu_perf.dense_qps(config) == pytest.approx(
            1.0 / cpu_perf.dense_query_latency(config)
        )


class TestSparseLatency:
    def test_latency_grows_with_gathers(self, cpu_perf):
        low = cpu_perf.sparse_shard_latency(1, 32, 32)
        high = cpu_perf.sparse_shard_latency(128, 32, 32)
        assert high > low > 0

    def test_latency_grows_with_dimension(self, cpu_perf):
        """Figure 9: larger embedding dimensions sustain lower QPS."""
        qps = {dim: cpu_perf.sparse_shard_qps(64, dim, 32) for dim in (32, 128, 512)}
        assert qps[32] > qps[128] > qps[512]

    def test_small_containers_gather_slower(self, cpu_perf):
        fast = cpu_perf.sparse_shard_latency(64, 32, 32, cores=4)
        slow = cpu_perf.sparse_shard_latency(64, 32, 32, cores=1)
        assert slow > fast

    def test_cores_at_reference_match_unconstrained(self, cpu_perf):
        reference = cpu_perf.calibration.sparse_reference_cores
        assert cpu_perf.sparse_shard_latency(64, 32, 32, cores=reference) == pytest.approx(
            cpu_perf.sparse_shard_latency(64, 32, 32)
        )

    def test_cache_reduces_latency(self, gpu_perf):
        plain = gpu_perf.sparse_layer_latency(rm1())
        cached = gpu_perf.sparse_layer_latency(rm1(), cache_latency_reduction=0.47)
        assert cached == pytest.approx(plain * 0.53)

    def test_zero_gathers_costs_only_overhead(self, cpu_perf):
        latency = cpu_perf.sparse_shard_latency(0, 32, 32)
        assert latency == pytest.approx(cpu_perf.calibration.sparse_query_overhead_s)

    def test_validation(self, cpu_perf):
        with pytest.raises(ValueError):
            cpu_perf.sparse_shard_latency(-1, 32, 32)
        with pytest.raises(ValueError):
            cpu_perf.sparse_shard_latency(1, 32, 0)
        with pytest.raises(ValueError):
            cpu_perf.sparse_shard_latency(1, 32, 32, cache_latency_reduction=1.0)
        with pytest.raises(ValueError):
            cpu_perf.per_lookup_seconds(0)
        with pytest.raises(ValueError):
            cpu_perf.per_lookup_seconds(32, cores=0)


class TestLayerLevelRelations:
    def test_qps_mismatch_between_layers(self, cpu_perf):
        """Figure 5: dense and sparse layer QPS differ substantially."""
        for config in (rm1(), rm2(), rm3()):
            dense = cpu_perf.dense_qps(config, cores=56)
            sparse = cpu_perf.sparse_layer_qps(config)
            assert max(dense, sparse) / min(dense, sparse) > 1.3

    def test_rm3_sparse_layer_is_faster_than_rm1(self, cpu_perf):
        """RM3 gathers far fewer vectors per query (pooling 32 vs 128)."""
        assert cpu_perf.sparse_layer_qps(rm3()) > cpu_perf.sparse_layer_qps(rm1())

    def test_model_wise_qps_below_both_layers(self, cpu_perf):
        config = rm1()
        mw = cpu_perf.model_wise_qps(config)
        policy = cpu_perf.cluster.container_policy
        assert mw < cpu_perf.dense_qps(config, cores=policy.model_wise_cores)
        assert mw < cpu_perf.sparse_layer_qps(config)

    def test_latency_breakdown_sums_to_total(self, cpu_perf):
        breakdown = cpu_perf.latency_breakdown(rm1())
        assert breakdown.total_s == pytest.approx(breakdown.dense_s + breakdown.sparse_s)
        assert 0 < breakdown.dense_fraction < 1

    def test_dense_dominates_cpu_latency_for_rm3(self, cpu_perf):
        """Figure 3(b): RM3's heavy MLPs dominate CPU-only latency."""
        assert cpu_perf.latency_breakdown(rm3()).dense_fraction > 0.8

    def test_sparse_dominates_gpu_latency(self, gpu_perf):
        """Figure 3(b): on CPU-GPU the CPU-resident sparse layer dominates."""
        assert gpu_perf.latency_breakdown(rm1()).sparse_fraction > 0.5

    def test_rpc_overheads_match_paper(self, cpu_perf, gpu_perf):
        assert cpu_perf.rpc_overhead_s() == pytest.approx(0.031)
        assert gpu_perf.rpc_overhead_s() == pytest.approx(0.060)

    def test_elastic_latency_within_sla(self, cpu_perf):
        """The paper keeps ElasticRec's average latency well inside the 400 ms SLA."""
        for config in (rm1(), rm2()):
            latency = (
                cpu_perf.dense_query_latency(config)
                + cpu_perf.sparse_layer_latency(config)
                + cpu_perf.rpc_overhead_s()
            )
            assert latency < cpu_perf.cluster.sla_s


class TestBatchLatencyModel:
    """The batch-aware latency API the serving engine's replicas consume."""

    def test_single_average_query_is_the_base_latency_bit_for_bit(self, cpu_perf):
        for role in ("dense", "embedding", "monolithic"):
            assert cpu_perf.latency_for(1, 1.0, base_latency_s=0.125, role=role) == 0.125

    def test_dense_batches_scale_sublinearly(self, cpu_perf):
        base = 0.05
        batched = cpu_perf.latency_for(8, base_latency_s=base, role="dense")
        assert base < batched < 8 * base
        exponent = cpu_perf.calibration.dense_batch_exponent
        assert batched == pytest.approx(base * 8**exponent)

    def test_sparse_batches_scale_per_vector(self, cpu_perf):
        base = 0.05
        f = cpu_perf.calibration.sparse_batch_overhead_fraction
        batched = cpu_perf.latency_for(4, 4.0, base_latency_s=base, role="embedding")
        assert batched == pytest.approx(base * (1.0 + (1.0 - f) * 3.0))
        # The fixed overhead amortises: cheaper than four serial queries.
        assert batched < 4 * base

    def test_sparse_latency_tracks_the_gather_multiplier(self, cpu_perf):
        base = 0.05
        cheap = cpu_perf.latency_for(1, 0.5, base_latency_s=base, role="embedding")
        expensive = cpu_perf.latency_for(1, 3.0, base_latency_s=base, role="embedding")
        assert cheap < base < expensive

    def test_dense_ignores_gather_multipliers(self, cpu_perf):
        base = 0.05
        assert cpu_perf.latency_for(2, 1.0, base_latency_s=base, role="dense") == (
            cpu_perf.latency_for(2, 5.0, base_latency_s=base, role="dense")
        )

    def test_monolithic_combines_both_scalings(self, cpu_perf):
        base = 0.05
        dense = cpu_perf.latency_for(4, base_latency_s=base, role="dense")
        mono_avg = cpu_perf.latency_for(4, 4.0, base_latency_s=base, role="monolithic")
        assert mono_avg == pytest.approx(dense)
        mono_hot = cpu_perf.latency_for(4, 8.0, base_latency_s=base, role="monolithic")
        assert mono_hot > mono_avg

    def test_batch_model_validation(self, cpu_perf):
        from repro.hardware.perf_model import BatchLatencyModel

        with pytest.raises(ValueError):
            cpu_perf.batch_model("gpu")
        with pytest.raises(ValueError):
            BatchLatencyModel(kind="dense", batch_exponent=0.0, overhead_fraction=0.2)
        with pytest.raises(ValueError):
            BatchLatencyModel(kind="dense", batch_exponent=0.9, overhead_fraction=1.0)
        model = cpu_perf.batch_model("embedding")
        with pytest.raises(ValueError):
            model.factor(0)
        with pytest.raises(ValueError):
            model.factor(1, 0.0)
        with pytest.raises(ValueError):
            model.latency_for(0.0, 1)
