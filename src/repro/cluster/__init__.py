"""Kubernetes-like container-orchestration substrate.

The paper deploys its shards as containers orchestrated by Kubernetes v1.26
with Horizontal Pod Autoscaling and Linkerd load balancing (Section V-B).
This subpackage provides the pieces of that stack the evaluation depends on;
the Linkerd stand-in is the serving engine's routing policies
(:mod:`repro.serving.routing`):

* :mod:`repro.cluster.resources` / :mod:`repro.cluster.container` /
  :mod:`repro.cluster.node` — resource requests, container lifecycle (with
  cold-start latency proportional to the model bytes a replica must load) and
  node capacity accounting.
* :mod:`repro.cluster.deployment` — a named replica set of one container spec.
* :mod:`repro.cluster.scheduler` — bin-packing placement of replicas onto
  nodes.
* :mod:`repro.cluster.autoscaler` — the HPA control loop (throughput and
  latency targets, scale-up/down stabilisation).
* :mod:`repro.cluster.metrics` — a Prometheus-like metric registry.
* :mod:`repro.cluster.cluster` — the facade tying nodes, deployments, the
  scheduler and the autoscaler together for the dynamic-traffic experiments.
"""

from repro.cluster.resources import ResourceCapacity, ResourceRequest
from repro.cluster.container import Container, ContainerSpec, ContainerState
from repro.cluster.node import Node
from repro.cluster.deployment import Deployment
from repro.cluster.scheduler import BinPackingScheduler, SchedulingError
from repro.cluster.autoscaler import HorizontalPodAutoscaler
from repro.cluster.metrics import MetricSample, MetricsRegistry
from repro.cluster.cluster import Cluster
from repro.cluster.manifests import plan_manifests, render_manifests

__all__ = [
    "plan_manifests",
    "render_manifests",
    "ResourceRequest",
    "ResourceCapacity",
    "ContainerSpec",
    "Container",
    "ContainerState",
    "Node",
    "Deployment",
    "BinPackingScheduler",
    "SchedulingError",
    "HorizontalPodAutoscaler",
    "MetricSample",
    "MetricsRegistry",
    "Cluster",
]
