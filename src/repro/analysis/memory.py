"""Memory-consumption accounting of deployment plans.

The paper's primary metric is the total memory allocated across every
container replica needed to reach a target QPS (Figures 12, 13, 16 and 20).
A replica's allocation is its model-parameter slice plus the container's
minimally required memory, exactly as Algorithm 1 estimates it; here the
accounting is applied to the *actual* (integer-replica) deployment plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import DeploymentPlan, ROLE_DENSE, ROLE_EMBEDDING, ROLE_MONOLITHIC

__all__ = ["MemoryBreakdown", "memory_breakdown", "memory_consumption_gb"]


@dataclass(frozen=True)
class MemoryBreakdown:
    """Allocated memory of one plan, split by shard role."""

    dense_gb: float
    embedding_gb: float
    monolithic_gb: float

    @property
    def total_gb(self) -> float:
        """Total allocated memory in GB."""
        return self.dense_gb + self.embedding_gb + self.monolithic_gb


def memory_breakdown(plan: DeploymentPlan) -> MemoryBreakdown:
    """Split a plan's allocated memory by shard role."""
    by_role = {ROLE_DENSE: 0.0, ROLE_EMBEDDING: 0.0, ROLE_MONOLITHIC: 0.0}
    for deployment in plan.deployments:
        by_role[deployment.role] += deployment.total_memory_bytes
    return MemoryBreakdown(
        dense_gb=by_role[ROLE_DENSE] / 1e9,
        embedding_gb=by_role[ROLE_EMBEDDING] / 1e9,
        monolithic_gb=by_role[ROLE_MONOLITHIC] / 1e9,
    )


def memory_consumption_gb(plan: DeploymentPlan) -> float:
    """Total allocated memory of a plan in GB."""
    return memory_breakdown(plan).total_gb
