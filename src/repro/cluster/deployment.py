"""Deployments: named replica sets of one container spec."""

from __future__ import annotations

from repro.cluster.container import Container, ContainerState
from repro.cluster.metrics import MetricsRegistry
from repro.core.hpa_policy import HPATarget

__all__ = ["Deployment"]


class Deployment:
    """A replica set managed by the cluster and scaled by the autoscaler."""

    def __init__(
        self,
        spec,
        desired_replicas: int,
        hpa: HPATarget | None = None,
        min_replicas: int = 1,
        max_replicas: int = 64,
    ) -> None:
        if desired_replicas <= 0:
            raise ValueError("desired_replicas must be positive")
        if not 1 <= min_replicas <= max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        self.spec = spec
        self.hpa = hpa
        self.min_replicas = int(min_replicas)
        self.max_replicas = int(max_replicas)
        self._desired_replicas = int(max(min(desired_replicas, max_replicas), min_replicas))
        self.replicas: list[Container] = []

    @property
    def name(self) -> str:
        """Deployment name (the container spec's name)."""
        return self.spec.name

    @property
    def desired_replicas(self) -> int:
        """Replica count the cluster should converge to."""
        return self._desired_replicas

    @desired_replicas.setter
    def desired_replicas(self, value: int) -> None:
        self._desired_replicas = int(max(min(value, self.max_replicas), self.min_replicas))

    @property
    def active_replicas(self) -> list[Container]:
        """Replicas that currently hold resources (starting or running)."""
        return [c for c in self.replicas if c.is_active]

    @property
    def ready_replicas(self) -> list[Container]:
        """Replicas currently able to serve traffic."""
        return [c for c in self.replicas if c.is_ready]

    @property
    def pending_replicas(self) -> list[Container]:
        """Replicas awaiting placement."""
        return [c for c in self.replicas if c.state is ContainerState.PENDING]

    @property
    def allocated_memory_bytes(self) -> float:
        """Memory reserved by the deployment's active replicas."""
        return sum(c.spec.resources.memory_bytes for c in self.active_replicas)

    def observed_metric(self, metrics: MetricsRegistry, now: float, window_s: float) -> float | None:
        """The value the HPA compares against its target for this deployment.

        Throughput targets observe the recent per-replica query rate; latency
        targets observe the recent p95 latency recorded for the deployment.
        The simulator records one aggregated ``<name>/queries`` sample (the
        query count) per control interval for every deployment, and one
        ``<name>/latency_s`` sample (the p95 of the interval's end-to-end
        latencies) only for dense and monolithic deployments.  A latency
        target on an embedding deployment would see no samples and return
        ``None``.
        """
        if self.hpa is None:
            return None
        if self.hpa.is_throughput_target:
            queries = metrics.sum(f"{self.name}/queries", now=now, window_s=window_s)
            if queries == 0 and metrics.count(f"{self.name}/queries", now, window_s) == 0:
                return None
            # Divide by every non-terminated replica (as Kubernetes does), not
            # just the ready ones, so replicas that are still starting do not
            # inflate the per-replica rate and cause scale-up overshoot.
            replicas = max(
                sum(c.state is not ContainerState.TERMINATED for c in self.replicas), 1
            )
            return queries / window_s / replicas
        return metrics.percentile(
            f"{self.name}/latency_s", percentile=95.0, now=now, window_s=window_s
        )

    def prune_terminated(self) -> None:
        """Drop terminated replicas from the tracking list."""
        self.replicas = [c for c in self.replicas if c.state is not ContainerState.TERMINATED]
