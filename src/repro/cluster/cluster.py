"""The cluster facade: nodes + deployments + scheduler + reconciliation loop."""

from __future__ import annotations

from repro.cluster.container import Container, ContainerSpec, ContainerState
from repro.cluster.deployment import Deployment
from repro.cluster.metrics import MetricsRegistry
from repro.cluster.node import Node
from repro.cluster.resources import ResourceRequest
from repro.cluster.scheduler import BinPackingScheduler
from repro.core.plan import DeploymentPlan
from repro.hardware.specs import ClusterSpec

__all__ = ["Cluster"]

#: Upper bound applied to every deployment's replica count (safety valve for
#: runaway autoscaling in simulations; generously above anything the paper
#: deploys).
DEFAULT_MAX_REPLICAS = 256


class Cluster:
    """A fixed pool of nodes running deployments of containerised shards."""

    def __init__(self, spec: ClusterSpec) -> None:
        self._spec = spec
        self._nodes = [
            Node(name=f"{spec.name}-node-{i}", spec=spec.node) for i in range(spec.num_nodes)
        ]
        self._scheduler = BinPackingScheduler(self._nodes)
        self._deployments: dict[str, Deployment] = {}
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_plan(
        self,
        plan: DeploymentPlan,
        prefix: str | None = None,
        initial_replicas: int | None = None,
        max_replicas: int = DEFAULT_MAX_REPLICAS,
    ) -> list[Deployment]:
        """Register every deployment of a plan on this cluster's node pool.

        Several plans can share one pool (the multi-tenant simulation);
        ``prefix`` namespaces the deployment names (``<prefix>/<shard>``) so
        tenants with identical shard names do not collide.  Returns the
        created deployments in plan order.
        """
        created = []
        for shard in plan.deployments:
            name = f"{prefix}/{shard.name}" if prefix else shard.name
            spec = ContainerSpec(
                name=name,
                role=shard.role,
                resources=ResourceRequest(
                    cores=shard.cores,
                    memory_bytes=shard.per_replica_memory_bytes,
                    gpus=shard.gpus,
                ),
                startup_s=shard.startup_s,
                per_replica_qps=shard.per_replica_qps,
            )
            replicas = shard.replicas if initial_replicas is None else initial_replicas
            created.append(
                self.create_deployment(
                    spec,
                    desired_replicas=replicas,
                    hpa=shard.hpa,
                    max_replicas=max_replicas,
                )
            )
        return created

    def create_deployment(
        self,
        spec: ContainerSpec,
        desired_replicas: int,
        hpa=None,
        min_replicas: int = 1,
        max_replicas: int = DEFAULT_MAX_REPLICAS,
    ) -> Deployment:
        """Register a new deployment (replicas are created on the next reconcile)."""
        if spec.name in self._deployments:
            raise ValueError(f"deployment {spec.name!r} already exists")
        deployment = Deployment(
            spec,
            desired_replicas=desired_replicas,
            hpa=hpa,
            min_replicas=min_replicas,
            max_replicas=max_replicas,
        )
        self._deployments[spec.name] = deployment
        return deployment

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> ClusterSpec:
        """The cluster specification."""
        return self._spec

    @property
    def nodes(self) -> list[Node]:
        """All nodes."""
        return list(self._nodes)

    @property
    def deployments(self) -> list[Deployment]:
        """All deployments."""
        return list(self._deployments.values())

    def deployment(self, name: str) -> Deployment:
        """Deployment by name."""
        try:
            return self._deployments[name]
        except KeyError:
            raise KeyError(f"no deployment named {name!r}") from None

    def node(self, key: int | str) -> Node:
        """Node by pool index or by name."""
        if isinstance(key, int):
            if not 0 <= key < len(self._nodes):
                raise KeyError(f"no node at index {key} (pool has {len(self._nodes)})")
            return self._nodes[key]
        for node in self._nodes:
            if node.name == key:
                return node
        raise KeyError(f"no node named {key!r}")

    @property
    def allocated_memory_bytes(self) -> float:
        """Memory reserved by every active container replica."""
        return sum(d.allocated_memory_bytes for d in self._deployments.values())

    @property
    def allocated_memory_gb(self) -> float:
        """Memory reserved by every active container replica, in GB."""
        return self.allocated_memory_bytes / 1e9

    @property
    def pending_containers(self) -> list[Container]:
        """Replicas that could not be placed yet."""
        return [c for d in self._deployments.values() for c in d.pending_replicas]

    @property
    def pending_placement_count(self) -> int:
        """Depth of the pending-placement queue (replicas awaiting a node)."""
        return len(self.pending_containers)

    @property
    def memory_capacity_gb(self) -> float:
        """Total allocatable memory of the node pool, in GB."""
        return self._scheduler.total_memory_bytes / 1e9

    def memory_utilization(self) -> float:
        """Fraction of the pool's memory currently reserved by containers."""
        return self._scheduler.memory_utilization()

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def reconcile(self, now: float) -> None:
        """Drive every deployment toward its desired replica count.

        Creates and schedules missing replicas, terminates surplus ones
        (youngest first, pending before running) and promotes replicas whose
        startup period has elapsed.
        """
        for deployment in self._deployments.values():
            deployment.prune_terminated()
            self._grow_or_shrink(deployment, now)
        # Place pending containers across all deployments in one packing pass.
        pending = [c for d in self._deployments.values() for c in d.pending_replicas]
        self._scheduler.schedule_all(pending, now)
        for deployment in self._deployments.values():
            for container in deployment.replicas:
                container.maybe_become_ready(now)

    def _grow_or_shrink(self, deployment: Deployment, now: float) -> None:
        live = [c for c in deployment.replicas if c.is_active or c.state.value == "pending"]
        desired = deployment.desired_replicas
        if len(live) < desired:
            for _ in range(desired - len(live)):
                deployment.replicas.append(Container(spec=deployment.spec))
        elif len(live) > desired:
            surplus = len(live) - desired
            # Remove pending replicas first, then the youngest active ones.
            removable = sorted(
                live,
                key=lambda c: (c.is_ready, c.created_at),
            )
            for container in removable[:surplus]:
                self._remove_container(container, now)

    def _remove_container(self, container: Container, now: float) -> None:
        if container.node_name is not None:
            node = next(n for n in self._nodes if n.name == container.node_name)
            node.evict(container, now)
        else:
            container.terminate(now)

    def nodes_in_use(self) -> int:
        """Number of nodes hosting at least one active container."""
        return sum(1 for node in self._nodes if node.containers)

    # ------------------------------------------------------------------
    # Fault handling: crashes, drains, recovery
    # ------------------------------------------------------------------
    def fail_replica(self, container_name: str, now: float) -> bool:
        """Kill one replica by name (fault injection).

        The container is terminated and its node resources released; the
        owning deployment's desired count is untouched, so the next reconcile
        re-creates the replica (which then sits through its cold start).
        Returns whether a matching live replica was found.
        """
        for deployment in self._deployments.values():
            for container in deployment.replicas:
                if (
                    container.name == container_name
                    and container.state is not ContainerState.TERMINATED
                ):
                    self._remove_container(container, now)
                    return True
        return False

    def evict_node(self, key: int | str, now: float) -> list[str]:
        """Evict every container on one node (the end of a drain's grace).

        Returns the names of the evicted containers so callers can settle
        their in-flight work.  The evicted replicas are re-created by the
        next reconcile and re-placed on the remaining schedulable nodes.
        """
        node = self.node(key)
        evicted = []
        for container in node.containers:
            evicted.append(container.name)
            node.evict(container, now)
        return evicted

    def uncordon_node(self, key: int | str) -> None:
        """Return a drained node to the schedulable pool."""
        self.node(key).uncordon()
