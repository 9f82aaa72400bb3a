"""Horizontal Pod Autoscaling (HPA) control loop.

Implements the Kubernetes HPA semantics the paper relies on (Sections II-B
and IV-D): every evaluation interval the observed metric of a deployment is
compared against its target and the desired replica count becomes
``ceil(current * observed / target)``, clamped to the deployment's bounds.
Scale-down decisions are additionally passed through a stabilisation window
(the maximum desired value seen recently) to avoid thrashing, mirroring the
``--horizontal-pod-autoscaler-downscale-stabilization`` behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.deployment import Deployment
from repro.cluster.metrics import MetricsRegistry

__all__ = ["HorizontalPodAutoscaler", "ScalingDecision"]


@dataclass(frozen=True)
class ScalingDecision:
    """The outcome of one HPA evaluation of one deployment."""

    deployment: str
    timestamp: float
    observed: float | None
    current_replicas: int
    desired_replicas: int

    @property
    def changed(self) -> bool:
        """Whether the desired replica count differs from the current one."""
        return self.desired_replicas != self.current_replicas


@dataclass
class HorizontalPodAutoscaler:
    """Evaluates HPA targets and updates deployments' desired replica counts."""

    evaluation_interval_s: float = 15.0
    metric_window_s: float = 30.0
    downscale_stabilization_s: float = 120.0
    tolerance: float = 0.05
    _last_evaluation: float = field(default=float("-inf"), init=False)
    _desired_history: dict[str, list[tuple[float, int]]] = field(default_factory=dict, init=False)
    _capacity_loss: dict[str, float] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.evaluation_interval_s <= 0 or self.metric_window_s <= 0:
            raise ValueError("intervals must be positive")
        if self.downscale_stabilization_s < 0:
            raise ValueError("downscale_stabilization_s must be non-negative")
        if not 0 <= self.tolerance < 1:
            raise ValueError("tolerance must be in [0, 1)")

    def should_evaluate(self, now: float) -> bool:
        """Whether the evaluation interval has elapsed since the last run."""
        return now - self._last_evaluation >= self.evaluation_interval_s

    def notice_capacity_loss(self, deployment_name: str, now: float = 0.0) -> None:
        """Flag a deployment whose capacity was lost to a failure.

        While the flag is set the HPA never recommends below the current
        desired count: a crash-induced throughput dip must not trigger a
        scale-down on top of the failure.  The flag clears once the active
        replicas catch back up with the desired count — or after one
        downscale-stabilisation window, so replacements that can *never* be
        placed (a permanently drained pool) do not pin the desired count for
        the rest of the run.
        """
        self._capacity_loss[deployment_name] = now

    def evaluate(
        self,
        deployments: list[Deployment],
        metrics: MetricsRegistry,
        now: float,
    ) -> list[ScalingDecision]:
        """Run one HPA pass over every deployment with an HPA target."""
        self._last_evaluation = now
        decisions = []
        for deployment in deployments:
            if deployment.hpa is None:
                continue
            decisions.append(self._evaluate_one(deployment, metrics, now))
        return decisions

    def _evaluate_one(
        self, deployment: Deployment, metrics: MetricsRegistry, now: float
    ) -> ScalingDecision:
        active = len(deployment.active_replicas)
        current = max(active, deployment.min_replicas)
        observed = deployment.observed_metric(metrics, now, self.metric_window_s)
        if now < self.metric_window_s:
            # The metric window has not filled yet; rates computed over it
            # would be underestimated, so hold the current size.
            observed = None
        if observed is None:
            # No signal yet (e.g. no traffic recorded): hold the current size.
            desired = deployment.desired_replicas
            return ScalingDecision(deployment.name, now, None, current, desired)

        ratio = observed / deployment.hpa.target_value
        if abs(ratio - 1.0) <= self.tolerance:
            raw_desired = current
        else:
            raw_desired = max(1, math.ceil(current * ratio))

        flagged_at = self._capacity_loss.get(deployment.name)
        if flagged_at is not None:
            caught_up = active >= deployment.desired_replicas
            expired = now - flagged_at > self.downscale_stabilization_s
            if caught_up or expired:
                self._capacity_loss.pop(deployment.name, None)
            else:
                # Replacements for failed capacity are still materialising:
                # hold the desired count so the failure-induced metric dip
                # cannot scale the deployment down on top of the outage.
                raw_desired = max(raw_desired, deployment.desired_replicas)

        desired = self._stabilize(deployment.name, raw_desired, current, now)
        desired = min(max(desired, deployment.min_replicas), deployment.max_replicas)
        deployment.desired_replicas = desired
        return ScalingDecision(deployment.name, now, observed, current, desired)

    def _stabilize(self, name: str, raw_desired: int, current: int, now: float) -> int:
        """Apply the downscale stabilisation window."""
        history = self._desired_history.setdefault(name, [])
        history.append((now, raw_desired))
        cutoff = now - self.downscale_stabilization_s
        self._desired_history[name] = [(t, d) for t, d in history if t >= cutoff]
        if raw_desired >= current:
            return raw_desired
        # Scale down only to the maximum recommendation seen during the window.
        return max(d for _, d in self._desired_history[name])
