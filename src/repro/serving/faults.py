"""Fault injection: scripted and stochastic failure/recovery events.

Production recommendation-serving fleets are never fully healthy: replicas
crash, nodes get drained for maintenance, and individual containers turn
into stragglers under noisy neighbours.  This module models those incidents
as *first-class typed events* that the serving engine schedules on its event
heap, so faults interleave deterministically with arrivals, autoscaler ticks
and reconciles.

Fault event types:

* :class:`ReplicaCrash` — one replica dies instantly.  Its in-flight queries
  are re-queued onto surviving replicas (``policy="requeue"``) or dropped and
  charged the rejection penalty (``policy="drop"``).  The cluster notices the
  lost capacity at the next reconcile and re-creates the replica, which must
  sit through its cold start before serving again.
* :class:`NodeDrain` — a whole node is cordoned (the scheduler stops placing
  replicas on it) and every replica on it starts *draining*: routing policies
  stop sending it new queries while its queued work keeps running.  After
  ``grace_s`` seconds the containers are evicted (still-unfinished queries
  are settled per the in-flight policy) and re-placed on the remaining nodes
  by the bin-packing scheduler; with a positive ``duration_s`` the node is
  uncordoned afterwards.
* :class:`StragglerSlowdown` — one replica serves every query ``factor``
  times slower for a window, then recovers.
* :class:`TransientDegradation` — a deployment-wide slowdown window (think
  packet loss or a throttled storage tier) hitting every replica of the
  matched deployments at once.

Stochastic faults are described by :class:`RandomCrashes`, a Poisson crash
process whose event times are sampled — vectorised and from a dedicated seed
stream — when the engine starts a run, so a faulty run is exactly as
deterministic as a healthy one.

A :class:`FaultModel` bundles scripted events plus stochastic processes.
Models come from three places:

* the :data:`FAULT_SCENARIOS` registry (named, duration-relative scenarios
  mirroring :data:`repro.serving.scenarios.SCENARIOS`);
* fault scripts in the shared spec grammar of :mod:`repro.serving.spec`,
  parsed by :func:`parse_fault_script`, e.g.
  ``"crash@120:policy=drop;drain@300+60:node=1;straggler@400+90:factor=4"``;
* plain Python construction.

Use :func:`make_fault_model` to resolve any of the three (plus ``None``,
``""`` or ``"none"`` for the healthy baseline) into a model; an empty model
resolves to ``None`` so the engine's no-fault path stays bit-exact with the
fault-unaware engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from repro.serving.spec import Grammar, is_off

__all__ = [
    "ReplicaCrash",
    "NodeDrain",
    "StragglerSlowdown",
    "TransientDegradation",
    "RandomCrashes",
    "FaultEvent",
    "FaultModel",
    "FAULT_SCENARIOS",
    "fault_scenario_names",
    "parse_fault_script",
    "make_fault_model",
    "resolve_fault_spec",
]

#: What happens to a dead replica's in-flight queries.
INFLIGHT_POLICIES = ("requeue", "drop")


def _check_inflight_policy(policy: str) -> None:
    if policy not in INFLIGHT_POLICIES:
        known = ", ".join(INFLIGHT_POLICIES)
        raise ValueError(f"unknown in-flight policy {policy!r}; choose from {known}")


@dataclass(frozen=True)
class ReplicaCrash:
    """One replica dies at ``at_s``.

    ``deployment`` narrows the victim pool to deployments whose name contains
    the given substring (all deployments when ``None``); ``replica`` picks a
    victim by wrapped index over the replicas in creation order instead of
    the fault RNG.  ``policy`` decides the fate of the replica's in-flight
    queries.
    """

    at_s: float
    deployment: str | None = None
    replica: int | None = None
    policy: str = "requeue"

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.replica is not None and self.replica < 0:
            raise ValueError("replica must be non-negative")
        _check_inflight_policy(self.policy)


@dataclass(frozen=True)
class NodeDrain:
    """Cordon node ``node`` at ``at_s``, drain its replicas, then evict them.

    At ``at_s`` the node stops taking placements and its replicas start
    draining (no new traffic, queued work keeps running — kubectl drain's
    graceful phase); ``grace_s`` seconds later the containers are evicted
    and their still-unfinished queries settled per ``policy``.  With
    ``duration_s > 0`` the node is uncordoned after the window; with
    ``duration_s == 0`` it stays out of the pool for the rest of the run.
    """

    at_s: float
    node: int = 0
    duration_s: float = 0.0
    policy: str = "requeue"
    grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.node < 0:
            raise ValueError("node must be non-negative")
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        if self.grace_s < 0:
            raise ValueError("grace_s must be non-negative")
        if 0 < self.duration_s < self.grace_s:
            # Uncordoning before the grace ends would let the scheduler place
            # fresh replicas on a node whose pending eviction then kills them.
            raise ValueError(
                "duration_s (the uncordon window) must be at least grace_s"
            )
        _check_inflight_policy(self.policy)


@dataclass(frozen=True)
class StragglerSlowdown:
    """One replica serves ``factor`` times slower for ``duration_s`` seconds."""

    at_s: float
    duration_s: float = 60.0
    factor: float = 4.0
    deployment: str | None = None
    replica: int | None = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if self.replica is not None and self.replica < 0:
            raise ValueError("replica must be non-negative")


@dataclass(frozen=True)
class TransientDegradation:
    """Every replica of the matched deployments slows down for a window."""

    at_s: float
    duration_s: float = 60.0
    factor: float = 2.0
    deployment: str | None = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("at_s must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.factor <= 0:
            raise ValueError("factor must be positive")


#: The concrete fault events a timeline may contain.
FaultEvent = Union[ReplicaCrash, NodeDrain, StragglerSlowdown, TransientDegradation]


@dataclass(frozen=True)
class RandomCrashes:
    """A Poisson crash process: replicas die at ``rate_per_min`` on average.

    Crash times are sampled over ``[start_s, end_s)`` (the whole run when
    ``end_s`` is ``None``) from the engine's dedicated fault seed stream, so
    the process is fully reproducible for a given seed.
    """

    rate_per_min: float
    start_s: float = 0.0
    end_s: float | None = None
    deployment: str | None = None
    policy: str = "requeue"

    def __post_init__(self) -> None:
        if not 0 < self.rate_per_min < math.inf:
            raise ValueError("rate_per_min must be positive and finite")
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.end_s is not None and self.end_s <= self.start_s:
            raise ValueError("end_s must exceed start_s")
        _check_inflight_policy(self.policy)


class FaultModel:
    """A composable set of scripted fault events plus stochastic processes."""

    def __init__(
        self,
        events: Sequence[FaultEvent] = (),
        processes: Sequence[RandomCrashes] = (),
        name: str = "custom",
    ) -> None:
        self._events = tuple(events)
        self._processes = tuple(processes)
        self.name = name

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        """The scripted events, in construction order."""
        return self._events

    @property
    def processes(self) -> tuple[RandomCrashes, ...]:
        """The stochastic fault processes."""
        return self._processes

    @property
    def is_empty(self) -> bool:
        """Whether the model can never inject anything."""
        return not self._events and not self._processes

    def timeline(
        self, duration_s: float, rng: np.random.Generator
    ) -> list[tuple[float, FaultEvent]]:
        """Materialise the run's fault timeline, sorted by injection time.

        Scripted events landing at or past ``duration_s`` never fire and are
        dropped; stochastic processes are sampled (exponential inter-arrival
        times from ``rng``) up to the run end.  The sort is stable, so ties
        resolve in construction order deterministically.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        timeline: list[tuple[float, FaultEvent]] = [
            (event.at_s, event) for event in self._events if event.at_s < duration_s
        ]
        for process in self._processes:
            end = duration_s if process.end_s is None else min(process.end_s, duration_s)
            mean_gap_s = 60.0 / process.rate_per_min
            at = process.start_s
            while True:
                at += float(rng.exponential(mean_gap_s))
                if at >= end:
                    break
                timeline.append(
                    (
                        at,
                        ReplicaCrash(
                            at_s=at,
                            deployment=process.deployment,
                            policy=process.policy,
                        ),
                    )
                )
        timeline.sort(key=lambda item: item[0])
        return timeline


# ----------------------------------------------------------------------
# Script syntax (the shared grammar of repro.serving.spec)
# ----------------------------------------------------------------------
#: Each script kind's dataclass and its spec-key -> field map.
_SCRIPT_KINDS: dict[str, tuple[type, dict[str, str]]] = {
    "crash": (
        ReplicaCrash,
        {"deployment": "deployment", "replica": "replica", "policy": "policy"},
    ),
    "drain": (NodeDrain, {"node": "node", "policy": "policy", "grace": "grace_s"}),
    "straggler": (
        StragglerSlowdown,
        {"factor": "factor", "deployment": "deployment", "replica": "replica"},
    ),
    "degrade": (TransientDegradation, {"factor": "factor", "deployment": "deployment"}),
    "crashes": (
        RandomCrashes,
        {"rate": "rate_per_min", "deployment": "deployment", "policy": "policy"},
    ),
}

_GRAMMAR = Grammar(
    what="fault",
    kinds=tuple(_SCRIPT_KINDS),
    kind_label="fault kind",
    at_label="start time",
    hint=(
        "expected 'kind@start[+duration][:key=value,...]' joined by ';' with "
        f"kinds {', '.join(_SCRIPT_KINDS)} "
        "(e.g. 'crash@120:policy=drop;drain@300+60:node=1')"
    ),
    duration=True,
    many=True,
)


def parse_fault_script(script: str) -> FaultModel:
    """Parse a fault script (grammar: :mod:`repro.serving.spec`) into a model.

    Clauses are joined by ``;``; each builds one event or process:

    * ``crash@120:deployment=emb,replica=0,policy=drop``
    * ``drain@300+60:node=1,grace=10`` (drain node 1 at t=300s, uncordon 60s later)
    * ``straggler@200+90:factor=4,deployment=dense``
    * ``degrade@400+30:factor=2``
    * ``crashes@0+600:rate=0.5,policy=requeue`` (Poisson, 0.5 crashes/min)
    """
    events: list[FaultEvent] = []
    processes: list[RandomCrashes] = []
    for clause in _GRAMMAR.parse(script):
        cls, keys = _SCRIPT_KINDS[clause.kind]
        if cls is RandomCrashes:
            end_s = None if clause.duration is None else clause.at + clause.duration
            processes.append(clause.build(cls, keys, start_s=clause.at, end_s=end_s))
        elif clause.duration is None:
            events.append(clause.build(cls, keys, at_s=clause.at))
        elif cls is ReplicaCrash:
            raise clause.error(
                "a crash is instantaneous and takes no '+duration' "
                "(did you mean 'drain' or 'straggler'?)"
            )
        else:
            events.append(
                clause.build(cls, keys, at_s=clause.at, duration_s=clause.duration)
            )
    return FaultModel(events=events, processes=processes, name="script")


# ----------------------------------------------------------------------
# Named fault scenarios (duration-relative, mirroring SCENARIOS)
# ----------------------------------------------------------------------
def _single_crash(duration_s: float) -> FaultModel:
    return FaultModel(
        events=[ReplicaCrash(at_s=0.4 * duration_s)], name="single-crash"
    )


def _crash_storm(duration_s: float) -> FaultModel:
    # ~8 expected crashes regardless of run length.
    return FaultModel(
        processes=[RandomCrashes(rate_per_min=480.0 / duration_s)],
        name="crash-storm",
    )


def _rolling_drain(duration_s: float) -> FaultModel:
    window = 0.2 * duration_s
    # Short runs shrink the uncordon window below the default grace period;
    # keep the grace strictly inside the window so the scenario stays valid
    # at any duration.
    grace = min(10.0, 0.5 * window)
    return FaultModel(
        events=[
            NodeDrain(at_s=0.3 * duration_s, node=0, duration_s=window, grace_s=grace),
            NodeDrain(at_s=0.6 * duration_s, node=1, duration_s=window, grace_s=grace),
        ],
        name="rolling-drain",
    )


def _stragglers(duration_s: float) -> FaultModel:
    window = 0.15 * duration_s
    return FaultModel(
        events=[
            StragglerSlowdown(at_s=0.25 * duration_s, duration_s=window, factor=4.0),
            StragglerSlowdown(at_s=0.55 * duration_s, duration_s=window, factor=4.0),
        ],
        name="stragglers",
    )


def _brownout(duration_s: float) -> FaultModel:
    return FaultModel(
        events=[
            TransientDegradation(
                at_s=0.4 * duration_s, duration_s=0.2 * duration_s, factor=2.5
            )
        ],
        name="brownout",
    )


#: CLI-facing fault-scenario registry; every builder takes the run duration
#: and returns a duration-relative :class:`FaultModel`.
FAULT_SCENARIOS: dict[str, Callable[[float], FaultModel]] = {
    "none": lambda duration_s: FaultModel(name="none"),
    "single-crash": _single_crash,
    "crash-storm": _crash_storm,
    "rolling-drain": _rolling_drain,
    "stragglers": _stragglers,
    "brownout": _brownout,
}


#: Most crashes a stochastic process may expect over its window: a huge
#: finite rate would otherwise draw an unbounded timeline (``crash-storm``
#: expects 8).
MAX_EXPECTED_CRASHES = 100_000


def fault_scenario_names() -> list[str]:
    """Registered fault-scenario names, in registration order."""
    return list(FAULT_SCENARIOS)


def resolve_fault_spec(
    spec: "str | FaultModel | None",
) -> "str | FaultModel | None":
    """Check a fault spec before the run duration is known.

    Returns ``None`` when the spec is off (``None``, ``""`` or ``"none"``),
    a registry scenario's name (scenarios are duration-relative, so they
    build per run), or a model: a script parses here, once.  Anything else
    raises a one-line :class:`~repro.serving.spec.SpecError`.
    """
    if is_off(spec):
        return None
    if not isinstance(spec, str):
        return spec
    name = spec.strip().lower()
    if name in FAULT_SCENARIOS:
        return name
    if "@" in name:
        return parse_fault_script(spec)
    known = ", ".join(fault_scenario_names())
    raise _GRAMMAR.error(
        spec.strip(),
        f"unknown fault scenario {spec.strip()!r} (choose from {known} or pass a script)",
    )


def make_fault_model(
    spec: "str | FaultModel | None", duration_s: float
) -> FaultModel | None:
    """Resolve a fault spec into a model, or ``None`` for a healthy run.

    ``spec`` may be off, a :class:`FaultModel`, a registered scenario name,
    or a fault script (recognised by the ``@`` in its first event).  Empty
    models resolve to ``None`` so the engine's no-fault path is taken.  A
    crash process expecting more than :data:`MAX_EXPECTED_CRASHES` crashes
    over its window (clipped to the run) raises a one-line
    :class:`~repro.serving.spec.SpecError`.
    """
    spec = resolve_fault_spec(spec)
    if isinstance(spec, str):
        spec = FAULT_SCENARIOS[spec](duration_s)
    if spec is None or spec.is_empty:
        return None
    for process in spec.processes:
        end = duration_s if process.end_s is None else min(process.end_s, duration_s)
        expected = process.rate_per_min * max(0.0, end - process.start_s) / 60.0
        if expected > MAX_EXPECTED_CRASHES:
            raise _GRAMMAR.error(
                f"crashes@{process.start_s:g}:rate={process.rate_per_min:g}",
                f"expects {expected:.3g} crashes over the run, more than the "
                f"{MAX_EXPECTED_CRASHES} a timeline can hold",
            )
    return spec
