"""Server-count and deployment-cost accounting (Figures 15 and 18).

The paper quantifies cost as the number of server nodes required to satisfy
the target throughput.  Every replica of every deployment in a plan carries a
resource request (cores, memory, GPUs); packing those requests onto identical
nodes with first-fit-decreasing gives the node count, and the relative cost of
two plans is simply the ratio of their node counts (optionally weighted by a
per-node price).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.resources import ResourceRequest
from repro.cluster.scheduler import nodes_required
from repro.core.plan import DeploymentPlan

__all__ = ["CostEstimate", "servers_required", "deployment_cost"]

#: Rough relative hourly price of a GPU-equipped node vs a CPU-only node,
#: used only when converting node counts into a cost figure.
DEFAULT_GPU_NODE_PRICE_FACTOR = 2.5


@dataclass(frozen=True)
class CostEstimate:
    """Server count and relative cost of one plan."""

    plan_name: str
    strategy: str
    num_servers: int
    total_replicas: int
    relative_cost: float


def _replica_requests(plan: DeploymentPlan) -> list[ResourceRequest]:
    requests = []
    for deployment in plan.deployments:
        request = ResourceRequest(
            cores=deployment.cores,
            memory_bytes=deployment.per_replica_memory_bytes,
            gpus=deployment.gpus,
        )
        requests.extend([request] * deployment.replicas)
    return requests


def servers_required(plan: DeploymentPlan) -> int:
    """Number of nodes needed to host every replica of the plan."""
    return nodes_required(_replica_requests(plan), plan.cluster.node)


def deployment_cost(
    plan: DeploymentPlan,
    gpu_node_price_factor: float = DEFAULT_GPU_NODE_PRICE_FACTOR,
) -> CostEstimate:
    """Server count plus a relative cost figure for one plan.

    The relative cost equals the node count for CPU-only clusters and the node
    count scaled by ``gpu_node_price_factor`` for GPU-equipped clusters, so
    costs are comparable across plans that share a cluster type.
    """
    if gpu_node_price_factor <= 0:
        raise ValueError("gpu_node_price_factor must be positive")
    servers = servers_required(plan)
    price_factor = gpu_node_price_factor if plan.cluster.is_gpu_system else 1.0
    return CostEstimate(
        plan_name=plan.name,
        strategy=plan.strategy,
        num_servers=servers,
        total_replicas=plan.total_replicas,
        relative_cost=servers * price_factor,
    )
