"""Model-wise baseline augmented with a GPU-side embedding cache (Section VI-E).

Prior work caches hot embedding vectors in GPU HBM to relieve CPU memory
bandwidth.  Following the paper's conservative modelling (after Kwon et al.),
the cache captures 90% of embedding gathers, which reduces the embedding
layer's average latency by 47%; that raises each monolithic replica's
throughput and therefore lowers the number of replicas — but the resource
allocation stays coarse-grained, so whole-table duplication remains.
"""

from __future__ import annotations

from repro.core.baseline import ModelWisePlanner
from repro.hardware.specs import ClusterSpec
from repro.model.configs import DLRMConfig

__all__ = ["CachedModelWisePlanner"]


class CachedModelWisePlanner(ModelWisePlanner):
    """Model-wise planner whose replicas benefit from a GPU embedding cache."""

    strategy = "model-wise-cache"

    def __init__(self, cluster: ClusterSpec) -> None:
        if not cluster.is_gpu_system:
            raise ValueError(
                "the GPU embedding-cache baseline requires a CPU-GPU cluster "
                "(the cache lives in GPU HBM)"
            )
        super().__init__(cluster)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of embedding gathers captured by the GPU cache."""
        return self.cluster.calibration.gpu_cache_hit_rate

    @property
    def cache_latency_reduction(self) -> float:
        """Average embedding-layer latency reduction the cache provides."""
        return self.cluster.calibration.gpu_cache_latency_reduction

    def replica_qps(self, config: DLRMConfig) -> float:
        """Monolithic replica throughput with the cache accelerating the sparse layer."""
        return self.perf_model.model_wise_qps(
            config, cache_latency_reduction=self.cache_latency_reduction
        )
