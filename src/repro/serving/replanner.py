"""Online re-planning: drift detection and mid-run successor plans.

ElasticRec's planner runs once before the clock starts, but access skew
drifts: the hot prefix a plan was partitioned around stops matching the
traffic, the stale shard boundaries unbalance gather costs, and tail latency
climbs.  This module closes the plan→serve→observe→re-plan
loop with a deliberately cheap *threshold tier* — the rule-based first stage
of a drift detector: it watches the live per-lane latency series the engine
already samples and fires only after the p95 has breached an SLA-relative
threshold for ``patience`` consecutive samples.  Paying for a full
distributional re-plan (a fresh DP partitioning against the *measured*
mixture distribution) happens only when that cheap tier says the series has
really moved.

The engine models the migration itself with typed heap events (see
``EventKind.REPLAN`` in :mod:`repro.serving.engine`): shard copies occupy
replicas as synthetic work, and arrival on the successor plan triggers the
cache tier's ``invalidate_caches()`` storm with a cold-cache warm-up.

``--replan`` specs use the shared grammar of :mod:`repro.serving.spec`:
``sla@<threshold>[:key=value,...]`` — the threshold is a multiple of the
tenant's SLA, e.g. ``sla@1.5:patience=3,cooldown=120,max=2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serving.spec import Grammar, is_off

__all__ = [
    "ReplanPolicy",
    "DriftDetector",
    "parse_replan_spec",
    "make_replan_policy",
]


@dataclass(frozen=True)
class ReplanPolicy:
    """When to fire a re-plan and how fast shard copies move.

    * ``threshold`` — p95 must exceed ``threshold * sla_s`` (strictly) to
      count as a breach; a series sitting exactly at the threshold never
      fires.
    * ``patience`` — consecutive breached samples required before firing.
    * ``cooldown_s`` — minimum simulated time between fires.
    * ``max_replans`` — hard cap on fires per run.
    * ``copy_gb_per_s`` — shard-copy bandwidth; each replica is occupied for
      ``per_replica_memory_bytes / bandwidth`` of synthetic migration work.
    """

    threshold: float = 1.5
    patience: int = 3
    cooldown_s: float = 120.0
    max_replans: int = 1
    copy_gb_per_s: float = 1.0

    def __post_init__(self) -> None:
        if self.threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if self.cooldown_s < 0.0:
            raise ValueError(f"cooldown must be non-negative, got {self.cooldown_s}")
        if self.max_replans < 1:
            raise ValueError(f"max must be at least 1, got {self.max_replans}")
        if self.copy_gb_per_s <= 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.copy_gb_per_s}")


#: ``--replan`` spec key -> :class:`ReplanPolicy` field.
_REPLAN_KEYS = {
    "patience": "patience",
    "cooldown": "cooldown_s",
    "max": "max_replans",
    "bandwidth": "copy_gb_per_s",
}

_GRAMMAR = Grammar(
    what="replan",
    kinds=("sla",),
    kind_label="replan trigger",
    at_label="threshold",
    hint=(
        "expected 'sla@<threshold>[:key=value,...]' with the threshold a multiple "
        f"of the SLA and optional keys {', '.join(_REPLAN_KEYS)} "
        "(e.g. 'sla@1.5:patience=3,cooldown=120,max=2')"
    ),
)


def parse_replan_spec(spec: str) -> ReplanPolicy:
    """Parse a ``sla@<threshold>[:key=value,...]`` replan spec (see :mod:`repro.serving.spec`)."""
    (clause,) = _GRAMMAR.parse(spec)
    return clause.build(ReplanPolicy, _REPLAN_KEYS, threshold=clause.at)


def make_replan_policy(spec: str | ReplanPolicy | None) -> ReplanPolicy | None:
    """Resolve a replan knob: off (``None``/``""``/``"none"``), instance or spec string."""
    if is_off(spec):
        return None
    return parse_replan_spec(spec) if isinstance(spec, str) else spec


class DriftDetector:
    """Threshold tier: consecutive SLA-relative p95 breaches fire a re-plan.

    :meth:`observe` is fed one interval-p95 per sample tick and returns
    ``True`` exactly when a re-plan should fire.  Breaches are *strict*
    (``p95 > threshold * sla_s``): a series sitting exactly at the threshold
    never fires.  A sample at or below the threshold — or an idle interval
    with no latency signal — resets the patience streak.
    """

    def __init__(self, policy: ReplanPolicy, sla_s: float) -> None:
        if sla_s <= 0.0:
            raise ValueError(f"sla_s must be positive, got {sla_s}")
        self._policy = policy
        self._threshold_s = policy.threshold * sla_s
        self._streak = 0
        self._fires = 0
        self._last_fire_s: float | None = None

    @property
    def threshold_s(self) -> float:
        """Absolute p95 threshold in seconds."""
        return self._threshold_s

    @property
    def fires(self) -> int:
        """Re-plans fired so far."""
        return self._fires

    def observe(self, now: float, p95_s: float | None) -> bool:
        """Feed one interval p95 (``None`` when the interval served nothing)."""
        if self._fires >= self._policy.max_replans:
            return False
        if p95_s is None or p95_s <= self._threshold_s:
            self._streak = 0
            return False
        self._streak += 1
        if self._streak < self._policy.patience:
            return False
        if (
            self._last_fire_s is not None
            and now < self._last_fire_s + self._policy.cooldown_s
        ):
            # Still cooling down: keep the streak so the fire lands on the
            # first breached sample past the cooldown.
            return False
        self._streak = 0
        self._fires += 1
        self._last_fire_s = now
        return True

    def escalate(self, now: float) -> bool:
        """Fire a re-plan on an external escalation, bypassing the streak.

        The SLO watchdog's ladder escalates here once its own patience at
        the top degradation level runs out, so the threshold streak is
        irrelevant — but the fire budget (``max_replans``) and the cooldown
        still apply: an escalation that lands inside either is refused.
        """
        if self._fires >= self._policy.max_replans:
            return False
        if (
            self._last_fire_s is not None
            and now < self._last_fire_s + self._policy.cooldown_s
        ):
            return False
        self._streak = 0
        self._fires += 1
        self._last_fire_s = now
        return True
