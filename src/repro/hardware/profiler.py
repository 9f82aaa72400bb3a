"""One-time profiling of embedding gathers and layer throughput.

ElasticRec "conducts a one-time profiling of embedding vector gather
operations, swept over various number of vector gathers, and measures its QPS
to construct a lookup table indexed by the number of gathers" (Section IV-B,
Figure 9).  :class:`GatherProfiler` performs that sweep against the
performance model; its output feeds the regression model in
:mod:`repro.core.qps_model`.  :class:`LayerProfiler` measures per-layer QPS of
whole workloads (Figure 5) and the latency breakdown of Figure 3(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hardware.perf_model import PerfModel
from repro.model.configs import DLRMConfig

__all__ = ["ProfilePoint", "GatherProfiler", "LayerProfiler", "DEFAULT_GATHER_SWEEP"]

#: Gather counts swept by default, matching the x-axis range of Figure 9.
DEFAULT_GATHER_SWEEP: tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32, 48, 64, 80, 96, 100)


@dataclass(frozen=True)
class ProfilePoint:
    """One measured point of the gather sweep."""

    num_gathers: float
    qps: float
    latency_s: float


class GatherProfiler:
    """Sweeps embedding-gather counts and records the sustained QPS (Figure 9)."""

    def __init__(self, perf_model: PerfModel, batch_size: int = 32) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self._perf_model = perf_model
        self._batch_size = int(batch_size)

    @property
    def batch_size(self) -> int:
        """Batch size used for every profiled query."""
        return self._batch_size

    def profile(
        self,
        embedding_dim: int,
        gather_counts: Sequence[float] = DEFAULT_GATHER_SWEEP,
        dtype_bytes: int = 4,
        cores: int | None = None,
    ) -> list[ProfilePoint]:
        """Profile QPS over a sweep of per-item gather counts for one vector size.

        ``cores`` profiles the gather operator under the core budget of the
        container that will eventually run it (``None`` profiles on an
        unconstrained machine, as in Figure 9).
        """
        if not gather_counts:
            raise ValueError("gather_counts must be non-empty")
        points = []
        for count in gather_counts:
            if count < 0:
                raise ValueError("gather counts must be non-negative")
            latency = self._perf_model.sparse_shard_latency(
                gathers_per_item=float(count),
                embedding_dim=embedding_dim,
                batch_size=self._batch_size,
                dtype_bytes=dtype_bytes,
                cores=cores,
            )
            points.append(
                ProfilePoint(num_gathers=float(count), qps=1.0 / latency, latency_s=latency)
            )
        return points


class LayerProfiler:
    """Measures per-layer throughput and latency shares for whole workloads."""

    def __init__(self, perf_model: PerfModel) -> None:
        self._perf_model = perf_model

    def layer_qps(self, config: DLRMConfig) -> dict[str, float]:
        """Figure 5: dense-layer and sparse-layer QPS measured separately."""
        policy = self._perf_model.cluster.container_policy
        dense = self._perf_model.dense_qps(config, cores=policy.model_wise_cores)
        sparse = self._perf_model.sparse_layer_qps(config)
        return {"dense": dense, "sparse": sparse}
