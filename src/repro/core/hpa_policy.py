"""Per-shard Horizontal Pod Autoscaling targets (Section IV-D).

ElasticRec configures Kubernetes HPA differently per shard type:

* **sparse embedding shards** use a throughput-centric target — the shard's
  maximum sustainable QPS (``QPS_max``); exceeding it triggers an additional
  replica.  The paper stress-tests each shard for it; here the planner
  derives it from the replica's analytic per-replica QPS;
* **dense DNN shards** use a latency-centric target set to 65% of the SLA so
  that replicas are added before tail latency approaches the SLA;
* the **model-wise baseline** scales the whole monolithic replica on its
  bottleneck-layer throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HPATarget", "build_hpa_target", "DENSE_LATENCY_SLA_FRACTION"]

#: The paper sets the dense shard's latency target to 65% of the SLA.
DENSE_LATENCY_SLA_FRACTION = 0.65

_VALID_METRICS = ("qps", "p95_latency")


@dataclass(frozen=True)
class HPATarget:
    """An autoscaling target for one deployment."""

    metric: str
    target_value: float
    description: str = ""

    def __post_init__(self) -> None:
        if self.metric not in _VALID_METRICS:
            raise ValueError(f"metric must be one of {_VALID_METRICS}, got {self.metric!r}")
        if self.target_value <= 0:
            raise ValueError("target_value must be positive")

    @property
    def is_throughput_target(self) -> bool:
        """True for QPS-based (sparse-shard style) targets."""
        return self.metric == "qps"


def build_hpa_target(
    role: str,
    shard_max_qps: float | None = None,
    sla_s: float | None = None,
    latency_fraction: float = DENSE_LATENCY_SLA_FRACTION,
) -> HPATarget:
    """Construct the HPA target for a shard of the given role.

    ``role`` is ``"sparse"``, ``"dense"`` or ``"monolithic"``.  Sparse and
    monolithic deployments need ``shard_max_qps`` (``QPS_max``); dense
    deployments need the cluster ``sla_s``.  The scaling rule itself lives in
    :class:`repro.cluster.autoscaler.HorizontalPodAutoscaler`.
    """
    role = role.lower()
    if role in ("sparse", "embedding", "monolithic", "model-wise"):
        if shard_max_qps is None or shard_max_qps <= 0:
            raise ValueError("a positive shard_max_qps is required for throughput targets")
        return HPATarget(
            metric="qps",
            target_value=shard_max_qps,
            description=f"scale out beyond {shard_max_qps:.1f} queries/s per replica",
        )
    if role == "dense":
        if sla_s is None or sla_s <= 0:
            raise ValueError("a positive sla_s is required for latency targets")
        if not 0 < latency_fraction <= 1:
            raise ValueError("latency_fraction must be in (0, 1]")
        target = sla_s * latency_fraction
        return HPATarget(
            metric="p95_latency",
            target_value=target,
            description=f"scale out when p95 latency exceeds {target * 1000:.0f} ms",
        )
    raise ValueError(f"unknown shard role {role!r}")
