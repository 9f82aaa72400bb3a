"""Per-layer self time of one traced round, recorded from outside the simulator.

Tracing wraps the public entry point of each layer where Python looks it up
at call time: class attributes (so already-bound hot-loop locals such as
``select_index = policy.select_index`` pick the wrapper up), the engine's
module globals ``_drive`` and ``_apply_fault``, ``sharding.merge_stream``,
and the ``heapq`` name inside :mod:`repro.serving.engine`, which is swapped
for a counting stand-in.  Patches are installed before the workload is built
and removed afterwards; nothing under ``src/`` changes.

A layer's *self time* is the time inside its spans minus the time inside the
spans they enclose.  ``drive.loop`` wraps the whole event loop, so its self
time is what the other layers do not account for.
"""

from __future__ import annotations

import functools
import heapq
import time
import types
from collections import Counter
from contextlib import contextmanager

from repro.cluster.autoscaler import HorizontalPodAutoscaler
from repro.cluster.cluster import Cluster
from repro.core.planner import ElasticRecPlanner
from repro.serving import engine, sharding
from repro.serving.engine import EventKind
from repro.serving.latency import LatencyTracker
from repro.serving.replica_server import ReplicaServer
from repro.serving.routing import ROUTING_POLICIES, ReplicaPool, RoutingPolicy
from repro.serving.streaming import SpoolWriter
from repro.serving.watchdog import SloWatchdog

_Runtime = engine._TenantRuntime
_POLICIES = (RoutingPolicy, *ROUTING_POLICIES.values())


def _own(attr: str) -> list[tuple[type, str]]:
    """Every routing policy class that defines ``attr`` itself."""
    return [(cls, attr) for cls in _POLICIES if attr in vars(cls)]


#: layer -> the (owner, attribute) pairs its spans wrap.  ``heap.push`` and
#: ``heap.pop`` live on the stand-in ``heapq`` and have no entry here.
_TARGETS: dict[str, list[tuple[object, str]]] = {
    "planner.plan": [(ElasticRecPlanner, "plan")],
    "engine.begin_run": [(_Runtime, "begin_run")],
    "engine.serve_query": [(_Runtime, "serve_query")],
    "replica_server.submit": [(ReplicaServer, "submit")],
    "latency.record": [(LatencyTracker, "record")],
    "routing.select_index": _own("select_index"),
    # LeastWorkPolicy inlines ``refresh()``, so the rebuild is the boundary.
    "routing.pool_refresh": [(ReplicaPool, "_rebuild")],
    "routing.select": _own("select"),
    "routing.on_complete": _own("on_complete"),
    "engine.record_interval_metrics": [(_Runtime, "record_interval_metrics")],
    "autoscaler.evaluate": [(HorizontalPodAutoscaler, "evaluate")],
    "cluster.reconcile": [(Cluster, "reconcile")],
    "engine.sync_servers": [(_Runtime, "sync_servers")],
    "engine.sample": [(_Runtime, "sample")],
    "engine.handle_timeout": [(_Runtime, "handle_timeout")],
    "engine.handle_retry": [(_Runtime, "handle_retry")],
    "engine.apply_fault": [(engine, "_apply_fault")],
    "watchdog.observe": [(SloWatchdog, "observe")],
    "drive.loop": [(engine, "_drive")],
    "streaming.append": [(SpoolWriter, "append")],
    "streaming.spill": [(LatencyTracker, "spill")],
    "streaming.merge": [(sharding, "merge_stream")],
    "engine.finish_run": [(_Runtime, "finish_run"), (_Runtime, "finish_run_streamed")],
}

#: Every traced layer, in report order.
LAYERS: tuple[str, ...] = (*_TARGETS, "heap.push", "heap.pop")


class Tracer:
    """Span accounting for one round: self time and calls per layer, plus
    counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.layers: dict[str, list] = {layer: [0.0, 0] for layer in LAYERS}
        #: Heap pops by event kind (the engine's event heap only).
        self.events: Counter = Counter()
        #: ``cache.hits`` / ``cache.gathers`` (read before each sample tick
        #: resets them) and ``streaming.bytes`` (size of every spool chunk).
        self.counters: Counter = Counter()
        # Time the enclosing span's children took; the bottom entry collects
        # top-level spans.
        self._stack = [0.0]

    def span(self, layer: str, fn):
        totals = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += elapsed - stack.pop()
                totals[1] += 1
                stack[-1] += elapsed

        return traced

    def _adapt(self, layer: str, fn):
        """Add the counts a layer's boundary is responsible for."""
        counters = self.counters
        if layer == "engine.sample":

            def sample(runtime, now):
                for lane in runtime._lanes:
                    if lane.cached:
                        counters["cache.hits"] += lane.hit_sum
                        counters["cache.gathers"] += lane.gather_sum
                return fn(runtime, now)

            return sample
        if layer == "streaming.append":

            def append(writer, stream, **arrays):
                path = fn(writer, stream, **arrays)
                counters["streaming.bytes"] += path.stat().st_size
                return path

            return append
        return fn

    def _heapq(self):
        """The engine's ``heapq``, with spans and a per-kind pop count."""
        events = self.events
        pop = heapq.heappop

        def heappop(heap):
            item = pop(heap)
            # The engine also keeps heaps of bare floats (live completions,
            # retry resolutions); only event tuples are counted.
            if type(item) is tuple:
                events[item[1]] += 1
            return item

        return types.SimpleNamespace(
            heappush=self.span("heap.push", heapq.heappush),
            heappop=self.span("heap.pop", heappop),
        )

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        patches = []
        try:
            for layer, targets in _TARGETS.items():
                for owner, attr in targets:
                    original = vars(owner)[attr]
                    patches.append((owner, attr, original))
                    setattr(owner, attr, self.span(layer, self._adapt(layer, original)))
            patches.append((engine, "heapq", engine.heapq))
            engine.heapq = self._heapq()
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {
            "layers": {layer: {"self_s": s, "calls": n} for layer, (s, n) in self.layers.items()},
            "events": {kind.name: self.events[kind] for kind in EventKind},
            "counters": dict(self.counters),
        }
