"""Node, GPU and cluster specifications (Section V-A) plus calibration constants.

Two kinds of constants live here:

* **Physical specifications** taken directly from the paper: the dual-socket
  Xeon Gold 6242 CPU-only node (64 logical cores, 384 GB DRAM, 256 GB/s,
  10 Gbps network, 11 compute nodes) and the GKE ``n1-standard-32`` CPU-GPU
  node (32 logical cores, 120 GB DRAM, NVIDIA T4, 32 Gbps, 20 nodes).
* **Calibration constants** for the serving performance model and for the
  container resource requests used when bin-packing shards onto nodes.  These
  stand in for the paper's measured profiles; DESIGN.md Section 4 records the
  calibration targets (Figures 5 and 9 shapes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "GPUSpec",
    "CPUNodeSpec",
    "ContainerPolicy",
    "PerfCalibration",
    "ClusterSpec",
    "nvidia_t4",
    "xeon_gold_6242",
    "gke_n1_standard_32",
    "cpu_only_cluster",
    "cpu_gpu_cluster",
]

#: Service-level agreement on tail latency used throughout the evaluation.
DEFAULT_SLA_MS = 400.0


@dataclass(frozen=True)
class GPUSpec:
    """An accelerator attached to a node."""

    name: str
    hbm_gb: float
    hbm_bandwidth_gbps: float
    fp32_tflops: float
    pcie_gbps: float

    def __post_init__(self) -> None:
        if min(self.hbm_gb, self.hbm_bandwidth_gbps, self.fp32_tflops, self.pcie_gbps) <= 0:
            raise ValueError("all GPU spec quantities must be positive")


@dataclass(frozen=True)
class CPUNodeSpec:
    """One inference-serving node."""

    name: str
    cores: int
    dram_gb: float
    memory_bandwidth_gbps: float
    network_gbps: float
    gpu: GPUSpec | None = None
    gpus_per_node: int = 0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"cores must be positive, got {self.cores}")
        if self.dram_gb <= 0:
            raise ValueError(f"dram_gb must be positive, got {self.dram_gb}")
        if self.memory_bandwidth_gbps <= 0:
            raise ValueError("memory_bandwidth_gbps must be positive")
        if self.network_gbps <= 0:
            raise ValueError("network_gbps must be positive")
        if (self.gpu is None) != (self.gpus_per_node == 0):
            raise ValueError("gpu and gpus_per_node must be set together")
        if self.gpus_per_node < 0:
            raise ValueError("gpus_per_node must be non-negative")

    @property
    def has_gpu(self) -> bool:
        """Whether the node carries an accelerator."""
        return self.gpu is not None


@dataclass(frozen=True)
class ContainerPolicy:
    """Resource requests and startup behaviour for each container type.

    ``min_mem_alloc_gb`` is Algorithm 1's ``min_mem_alloc``: the minimally
    required memory of every container replica (code, buffers, serving stack).
    Startup time models the paper's observation (Section VI-D) that
    coarse-grained model-wise replicas take much longer to initialise because
    the whole model must be loaded before the replica can serve.
    """

    model_wise_cores: int = 48
    dense_shard_cores: int = 20
    sparse_shard_cores: int = 2
    dense_shard_gpus: int = 0
    model_wise_gpus: int = 0
    min_mem_alloc_gb: float = 0.5
    startup_base_s: float = 8.0
    startup_per_gb_s: float = 5.0
    #: Fraction of a replica's measured capacity used as its throughput-HPA
    #: target (the paper's stress-tested QPS_max knee sits below the saturation
    #: rate).
    hpa_target_fraction: float = 0.75

    def __post_init__(self) -> None:
        if min(self.model_wise_cores, self.dense_shard_cores, self.sparse_shard_cores) <= 0:
            raise ValueError("all container core requests must be positive")
        if self.min_mem_alloc_gb < 0:
            raise ValueError("min_mem_alloc_gb must be non-negative")
        if self.startup_base_s < 0 or self.startup_per_gb_s < 0:
            raise ValueError("startup times must be non-negative")
        if self.dense_shard_gpus < 0 or self.model_wise_gpus < 0:
            raise ValueError("GPU requests must be non-negative")
        if not 0 < self.hpa_target_fraction <= 1:
            raise ValueError("hpa_target_fraction must be in (0, 1]")

    def startup_seconds(self, memory_gb: float) -> float:
        """Container cold-start latency given the bytes it must load."""
        if memory_gb < 0:
            raise ValueError("memory_gb must be non-negative")
        return self.startup_base_s + self.startup_per_gb_s * memory_gb


@dataclass(frozen=True)
class PerfCalibration:
    """Calibration constants of the serving performance model.

    See DESIGN.md Section 4.  The dense-layer constants are expressed as an
    *effective* GFLOP/s at a reference core count with a sub-linear scaling
    exponent (thread-level parallel efficiency); the sparse-layer constants
    express the fixed per-query overhead of the embedding stage and the
    effective per-vector gather cost of random DRAM accesses.
    """

    # Dense layer on CPU.
    cpu_dense_gflops_at_reference: float = 0.70
    cpu_dense_reference_cores: int = 48
    cpu_dense_parallel_exponent: float = 0.90
    cpu_dense_overhead_s: float = 0.055
    # Dense layer on GPU.
    gpu_dense_effective_tflops: float = 0.05
    gpu_dense_overhead_s: float = 0.003
    gpu_pcie_efficiency: float = 0.7
    # Sparse (embedding) layer on CPU.
    sparse_query_overhead_s: float = 0.007
    sparse_per_lookup_base_us: float = 5.0
    sparse_random_access_mb_per_s: float = 48.0
    # Batch execution.  Dense layers batch sub-linearly (GEMM efficiency grows
    # with batch size); sparse layers scale with the number of gathered
    # vectors, amortising only the fixed per-query overhead, whose share of
    # the single-query latency is ``sparse_batch_overhead_fraction``.
    dense_batch_exponent: float = 0.85
    sparse_batch_overhead_fraction: float = 0.20
    # Embedding gathers need enough worker threads to expose memory-level
    # parallelism; below this core count the per-lookup cost grows inversely
    # with the container's cores, above it the gathers are bandwidth-bound.
    sparse_reference_cores: int = 2
    # Monolithic (model-wise) co-location interference: dense and sparse
    # layers sharing one container contend for cores, LLC and memory
    # bandwidth.
    colocation_interference: float = 0.8
    # Extra average latency ElasticRec pays for cross-shard RPC (Section VI-B/C).
    rpc_overhead_cpu_s: float = 0.031
    rpc_overhead_gpu_s: float = 0.060
    # GPU-side embedding cache baseline (Section VI-E).
    gpu_cache_hit_rate: float = 0.90
    gpu_cache_latency_reduction: float = 0.47

    def __post_init__(self) -> None:
        if self.cpu_dense_gflops_at_reference <= 0 or self.gpu_dense_effective_tflops <= 0:
            raise ValueError("effective compute throughputs must be positive")
        if self.cpu_dense_reference_cores <= 0:
            raise ValueError("cpu_dense_reference_cores must be positive")
        if not 0 < self.cpu_dense_parallel_exponent <= 1:
            raise ValueError("cpu_dense_parallel_exponent must be in (0, 1]")
        if not 0 < self.dense_batch_exponent <= 1:
            raise ValueError("dense_batch_exponent must be in (0, 1]")
        if not 0 <= self.sparse_batch_overhead_fraction < 1:
            raise ValueError("sparse_batch_overhead_fraction must be in [0, 1)")
        if not 0 < self.colocation_interference <= 1:
            raise ValueError("colocation_interference must be in (0, 1]")
        if not 0 <= self.gpu_cache_hit_rate <= 1:
            raise ValueError("gpu_cache_hit_rate must be in [0, 1]")
        if not 0 <= self.gpu_cache_latency_reduction < 1:
            raise ValueError("gpu_cache_latency_reduction must be in [0, 1)")


@dataclass(frozen=True)
class ClusterSpec:
    """A serving cluster: node type, node count, system kind and policies."""

    name: str
    node: CPUNodeSpec
    num_nodes: int
    system: str  # "cpu" or "cpu-gpu"
    sla_ms: float = DEFAULT_SLA_MS
    container_policy: ContainerPolicy = field(default_factory=ContainerPolicy)
    calibration: PerfCalibration = field(default_factory=PerfCalibration)
    utilization_headroom: float = 0.9

    def __post_init__(self) -> None:
        if self.system not in ("cpu", "cpu-gpu"):
            raise ValueError(f"system must be 'cpu' or 'cpu-gpu', got {self.system!r}")
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {self.num_nodes}")
        if self.sla_ms <= 0:
            raise ValueError("sla_ms must be positive")
        if not 0 < self.utilization_headroom <= 1:
            raise ValueError("utilization_headroom must be in (0, 1]")
        if self.system == "cpu-gpu" and not self.node.has_gpu:
            raise ValueError("a cpu-gpu cluster needs GPU-equipped nodes")

    @property
    def is_gpu_system(self) -> bool:
        """True for the hybrid CPU-GPU system."""
        return self.system == "cpu-gpu"

    @property
    def sla_s(self) -> float:
        """SLA target in seconds."""
        return self.sla_ms / 1000.0

    @property
    def total_cores(self) -> int:
        """Aggregate logical cores across compute nodes."""
        return self.node.cores * self.num_nodes

    def with_nodes(self, num_nodes: int) -> "ClusterSpec":
        """Copy of this spec with a different fleet size."""
        return replace(self, num_nodes=num_nodes)


# ----------------------------------------------------------------------
# Presets from Section V-A
# ----------------------------------------------------------------------
def nvidia_t4() -> GPUSpec:
    """NVIDIA Tesla T4 (the GKE accelerator)."""
    return GPUSpec(
        name="NVIDIA-T4",
        hbm_gb=16.0,
        hbm_bandwidth_gbps=300.0,
        fp32_tflops=8.1,
        pcie_gbps=16.0,
    )


def xeon_gold_6242() -> CPUNodeSpec:
    """Dual-socket Intel Xeon Gold 6242 node used by the CPU-only cluster."""
    return CPUNodeSpec(
        name="xeon-gold-6242-2s",
        cores=64,
        dram_gb=384.0,
        memory_bandwidth_gbps=256.0,
        network_gbps=10.0,
    )


def gke_n1_standard_32() -> CPUNodeSpec:
    """GKE ``n1-standard-32`` node with an attached T4 (CPU-GPU cluster)."""
    return CPUNodeSpec(
        name="gke-n1-standard-32-t4",
        cores=32,
        dram_gb=120.0,
        memory_bandwidth_gbps=80.0,
        network_gbps=32.0,
        gpu=nvidia_t4(),
        gpus_per_node=1,
    )


def cpu_only_cluster(num_nodes: int = 11) -> ClusterSpec:
    """The paper's CPU-only cluster: one master plus eleven compute nodes."""
    return ClusterSpec(
        name="cpu-only",
        node=xeon_gold_6242(),
        num_nodes=num_nodes,
        system="cpu",
        container_policy=ContainerPolicy(
            model_wise_cores=56,
            dense_shard_cores=16,
            sparse_shard_cores=2,
            model_wise_gpus=0,
            dense_shard_gpus=0,
        ),
    )


def cpu_gpu_cluster(num_nodes: int = 20) -> ClusterSpec:
    """The paper's CPU-GPU cluster: twenty GKE ``n1-standard-32`` + T4 nodes."""
    return ClusterSpec(
        name="cpu-gpu",
        node=gke_n1_standard_32(),
        num_nodes=num_nodes,
        system="cpu-gpu",
        container_policy=ContainerPolicy(
            model_wise_cores=28,
            dense_shard_cores=8,
            sparse_shard_cores=2,
            model_wise_gpus=1,
            dense_shard_gpus=1,
        ),
    )
