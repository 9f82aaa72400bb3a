"""ElasticRec reproduction: microservice-based RecSys model serving with elastic scaling.

This package reproduces *ElasticRec: A Microservice-based Model Serving
Architecture Enabling Elastic Resource Scaling for Recommendation Models*
(ISCA 2024) as a pure-Python library.  It contains:

``repro.core``
    The paper's contribution: hotness-sorted table preprocessing, the
    profiling-based QPS regression model, the Algorithm-1 deployment cost
    estimator, the Algorithm-2 dynamic-programming table partitioner,
    bucketization, HPA policy generation and the end-to-end ElasticRec
    deployment planner plus the model-wise and GPU-cache baselines.

``repro.model``
    A numpy DLRM substrate (MLPs, embedding bags, feature interaction) with
    analytic FLOP / memory counters, plus the RM1/RM2/RM3 and microbenchmark
    configurations of Tables I and II.

``repro.hardware``
    CPU-only and CPU-GPU node specifications and a calibrated roofline-style
    performance model used for profiling per-layer QPS.

``repro.cluster``
    A Kubernetes-like substrate: containers, nodes, bin-packing scheduler,
    deployments, horizontal pod autoscaler and metric registry.

``repro.serving``
    A discrete-event serving simulator (traffic generation, per-replica
    queueing, routing policies, tail-latency tracking).

``repro.data``
    Power-law embedding access distributions, synthetic dataset presets and
    query generation.

``repro.analysis``
    Memory consumption, memory utility and deployment cost accounting.

``repro.experiments``
    One module per paper figure regenerating its rows/series.
"""

from repro._version import __version__
from repro.core.planner import ElasticRecPlanner
from repro.core.baseline import ModelWisePlanner
from repro.core.gpu_cache import CachedModelWisePlanner
from repro.core.plan import DeploymentPlan, ShardDeployment
from repro.core.sharding import DenseShardSpec, EmbeddingShardSpec, ShardingPlan
from repro.model.configs import (
    DLRMConfig,
    EmbeddingConfig,
    MLPConfig,
    microbenchmark,
    rm1,
    rm2,
    rm3,
)
from repro.hardware.specs import (
    ClusterSpec,
    CPUNodeSpec,
    GPUSpec,
    cpu_gpu_cluster,
    cpu_only_cluster,
)
from repro.hardware.perf_model import PerfModel

__all__ = [
    "__version__",
    "ElasticRecPlanner",
    "ModelWisePlanner",
    "CachedModelWisePlanner",
    "DeploymentPlan",
    "ShardDeployment",
    "DenseShardSpec",
    "EmbeddingShardSpec",
    "ShardingPlan",
    "DLRMConfig",
    "EmbeddingConfig",
    "MLPConfig",
    "microbenchmark",
    "rm1",
    "rm2",
    "rm3",
    "ClusterSpec",
    "CPUNodeSpec",
    "GPUSpec",
    "cpu_only_cluster",
    "cpu_gpu_cluster",
    "PerfModel",
]
