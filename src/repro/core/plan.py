"""Deployment plans: how many replicas of which container serve a workload.

A :class:`DeploymentPlan` is the common output format of the ElasticRec
planner and of the baseline planners; every analysis (memory consumption,
memory utility, server count) and the serving simulator consume plans through
this interface, so ElasticRec and the baselines are always compared on
exactly the same accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hpa_policy import HPATarget
from repro.core.sharding import EmbeddingShardSpec, ShardingPlan
from repro.hardware.specs import ClusterSpec
from repro.model.configs import DLRMConfig

__all__ = ["ShardDeployment", "DeploymentPlan", "ROLE_DENSE", "ROLE_EMBEDDING", "ROLE_MONOLITHIC"]

ROLE_DENSE = "dense"
ROLE_EMBEDDING = "embedding"
ROLE_MONOLITHIC = "monolithic"

_VALID_ROLES = (ROLE_DENSE, ROLE_EMBEDDING, ROLE_MONOLITHIC)


@dataclass(frozen=True)
class ShardDeployment:
    """One deployment (a container image plus its replica count)."""

    name: str
    role: str
    replicas: int
    per_replica_memory_bytes: float
    cores: int
    gpus: int
    per_replica_qps: float
    startup_s: float
    hpa: HPATarget | None = None
    embedding_shard: EmbeddingShardSpec | None = None

    def __post_init__(self) -> None:
        if self.role not in _VALID_ROLES:
            raise ValueError(f"role must be one of {_VALID_ROLES}, got {self.role!r}")
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if self.per_replica_memory_bytes <= 0:
            raise ValueError("per_replica_memory_bytes must be positive")
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.gpus < 0:
            raise ValueError("gpus must be non-negative")
        if self.per_replica_qps <= 0:
            raise ValueError("per_replica_qps must be positive")
        if self.startup_s < 0:
            raise ValueError("startup_s must be non-negative")
        if self.role == ROLE_EMBEDDING and self.embedding_shard is None:
            raise ValueError("embedding deployments must carry their shard spec")

    @property
    def total_memory_bytes(self) -> float:
        """Memory allocated across every replica of this deployment."""
        return self.replicas * self.per_replica_memory_bytes

    @property
    def total_memory_gb(self) -> float:
        """Memory allocated across replicas, in GB."""
        return self.total_memory_bytes / 1e9

    @property
    def total_cores(self) -> int:
        """Cores requested across every replica."""
        return self.replicas * self.cores

    @property
    def total_gpus(self) -> int:
        """GPUs requested across every replica."""
        return self.replicas * self.gpus


@dataclass(frozen=True)
class DeploymentPlan:
    """A complete serving deployment for one workload on one cluster."""

    name: str
    strategy: str
    workload: DLRMConfig
    cluster: ClusterSpec
    target_qps: float
    deployments: tuple[ShardDeployment, ...]
    sharding: ShardingPlan | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "deployments", tuple(self.deployments))
        if self.target_qps <= 0:
            raise ValueError("target_qps must be positive")
        if not self.deployments:
            raise ValueError("a plan needs at least one deployment")
        names = [d.name for d in self.deployments]
        if len(names) != len(set(names)):
            raise ValueError("deployment names must be unique")

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def deployments_by_role(self, role: str) -> list[ShardDeployment]:
        """All deployments of one role."""
        return [d for d in self.deployments if d.role == role]

    @property
    def dense_deployments(self) -> list[ShardDeployment]:
        """Dense-shard deployments (empty for the model-wise baseline)."""
        return self.deployments_by_role(ROLE_DENSE)

    @property
    def embedding_deployments(self) -> list[ShardDeployment]:
        """Embedding-shard deployments (empty for the model-wise baseline)."""
        return self.deployments_by_role(ROLE_EMBEDDING)

    @property
    def monolithic_deployments(self) -> list[ShardDeployment]:
        """Monolithic deployments (the model-wise baseline's single deployment)."""
        return self.deployments_by_role(ROLE_MONOLITHIC)

    def embedding_deployments_for_table(self, table_id: int) -> list[ShardDeployment]:
        """Embedding-shard deployments of one table, hottest shard first."""
        shards = [
            d
            for d in self.embedding_deployments
            if d.embedding_shard is not None and d.embedding_shard.table_id == table_id
        ]
        return sorted(shards, key=lambda d: d.embedding_shard.shard_index)

    def get(self, name: str) -> ShardDeployment:
        """Deployment by name."""
        for deployment in self.deployments:
            if deployment.name == name:
                return deployment
        raise KeyError(f"no deployment named {name!r} in plan {self.name!r}")

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_memory_bytes(self) -> float:
        """Memory allocated by every replica of every deployment."""
        return sum(d.total_memory_bytes for d in self.deployments)

    @property
    def total_memory_gb(self) -> float:
        """Total allocated memory in GB (the Figure 12/13/16/20 metric)."""
        return self.total_memory_bytes / 1e9

    @property
    def total_replicas(self) -> int:
        """Container replicas across every deployment."""
        return sum(d.replicas for d in self.deployments)

    @property
    def total_cores(self) -> int:
        """Cores requested across every replica."""
        return sum(d.total_cores for d in self.deployments)

    @property
    def total_gpus(self) -> int:
        """GPUs requested across every replica."""
        return sum(d.total_gpus for d in self.deployments)

    def summary(self) -> dict[str, float]:
        """Headline numbers for reports and experiment tables."""
        return {
            "target_qps": self.target_qps,
            "total_memory_gb": self.total_memory_gb,
            "total_replicas": float(self.total_replicas),
            "total_cores": float(self.total_cores),
            "total_gpus": float(self.total_gpus),
            "num_deployments": float(len(self.deployments)),
        }
