"""End-to-end integration tests spanning the whole pipeline.

These tests exercise the full ElasticRec flow — functional model execution,
planning, sharded inference equivalence, deployment analysis and dynamic
serving — on small but complete configurations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.memory import memory_consumption_gb
from repro.analysis.utility import average_memory_utility
from repro.core.baseline import ModelWisePlanner
from repro.core.bucketization import Bucketizer, merge_pooled
from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import DLRMConfig, EmbeddingConfig, MLPConfig
from repro.model.dlrm import DLRM
from repro.model.embedding import EmbeddingBag
from repro.serving.engine import ServingEngine
from repro.serving.traffic import TrafficPattern


@pytest.fixture(scope="module")
def workload() -> DLRMConfig:
    """A reduced but non-trivial DLRM workload with skewed embedding access.

    The tables are large enough (hundreds of MB) that whole-model replication
    is genuinely wasteful — the regime the paper targets — while staying far
    below paper scale so the test remains fast.
    """
    return DLRMConfig(
        name="integration",
        bottom_mlp=MLPConfig((128, 64, 32)),
        top_mlp=MLPConfig((128, 1)),
        embedding=EmbeddingConfig(
            num_tables=3,
            rows_per_table=10_000_000,
            embedding_dim=32,
            pooling=80,
            locality=0.9,
        ),
        num_dense_features=13,
        batch_size=32,
    )


TARGET_QPS = 150.0


@pytest.fixture(scope="module")
def cluster():
    return cpu_only_cluster(num_nodes=12)


@pytest.fixture(scope="module")
def elastic_plan(workload, cluster):
    return ElasticRecPlanner(cluster, granularity=256).plan(workload, target_qps=TARGET_QPS)


@pytest.fixture(scope="module")
def baseline_plan(workload, cluster):
    return ModelWisePlanner(cluster).plan(workload, target_qps=TARGET_QPS)


class TestShardedInferenceEquivalence:
    def test_partitioned_model_matches_monolithic(self, workload, elastic_plan):
        """The paper's decomposition must not change model outputs at all."""
        rows = 5_000
        model = DLRM(workload, rows_override=rows, seed=5)
        scale = rows / workload.embedding.rows_per_table
        raw_boundaries = elastic_plan.sharding.table_boundaries[0]
        boundaries = sorted({int(round(b * scale)) for b in raw_boundaries})
        boundaries[0], boundaries[-1] = 0, rows
        bucketizer = Bucketizer(boundaries)
        shard_bags = {
            table.spec.table_id: [
                EmbeddingBag(table.slice(start, end))
                for start, end in zip(boundaries[:-1], boundaries[1:])
            ]
            for table in model.tables
        }
        generator = workload.query_generator(seed=9, rows_override=rows)
        for _ in range(5):
            query = generator.generate()
            monolithic = model(query)
            dense_vector = model.run_bottom_mlp(query.dense_input)
            pooled = []
            for lookup in query.sparse_lookups:
                routed = bucketizer.bucketize(lookup.indices, lookup.offsets)
                pooled.append(
                    merge_pooled(
                        [
                            shard_bags[lookup.table_id][r.shard_index](r.indices, r.offsets)
                            for r in routed
                        ]
                    )
                )
            sharded = model.run_top(dense_vector, pooled)
            assert np.allclose(monolithic, sharded, atol=1e-10)


class TestPlanningOutcomes:
    def test_elasticrec_saves_memory(self, elastic_plan, baseline_plan):
        assert memory_consumption_gb(elastic_plan) < memory_consumption_gb(baseline_plan)

    def test_elasticrec_improves_utility(self, elastic_plan, baseline_plan):
        assert average_memory_utility(elastic_plan) > average_memory_utility(baseline_plan)

    def test_shards_cover_each_table_exactly(self, elastic_plan, workload):
        rows = workload.embedding.rows_per_table
        for table_id in range(workload.embedding.num_tables):
            shards = [
                d.embedding_shard for d in elastic_plan.embedding_deployments_for_table(table_id)
            ]
            assert shards[0].start_row == 0
            assert shards[-1].end_row == rows
            for left, right in zip(shards, shards[1:]):
                assert left.end_row == right.start_row

    def test_aggregate_capacity_meets_target(self, elastic_plan, cluster):
        headroom = cluster.utilization_headroom
        for deployment in elastic_plan.deployments:
            assert deployment.aggregate_qps * headroom >= elastic_plan.target_qps - 1e-9


class TestServingBothStrategies:
    def test_both_plans_serve_steady_traffic(self, elastic_plan, baseline_plan):
        pattern = TrafficPattern.constant(40.0, duration_s=180.0)
        for plan in (elastic_plan, baseline_plan):
            result = ServingEngine(plan, seed=2, autoscale=False).run(pattern)
            assert np.mean(result.achieved_qps[3:]) == pytest.approx(40.0, rel=0.15)
            assert result.sla_violation_fraction() < 0.1

    def test_elastic_scales_with_less_memory_than_baseline(
        self, elastic_plan, baseline_plan
    ):
        pattern = TrafficPattern.from_steps([(0, 40), (120, 140)], duration_s=420)
        elastic = ServingEngine(elastic_plan, seed=4).run(pattern)
        baseline = ServingEngine(baseline_plan, seed=4).run(pattern)
        assert elastic.peak_memory_gb < baseline.peak_memory_gb
