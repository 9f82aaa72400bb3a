"""Self-healing SLO control plane: tiered watchdog + graceful degradation.

Shaped by SNIPPETS.md's Choi-vs-L2 analysis: a *tiered
hybrid* regression detector over the engine's live latency/availability
series.  Tier 1 is the explainable rule layer — p95/p99 against SLA betas,
an availability floor and a rejection-rate ceiling, each checked every
sample tick with the same strict-breach semantics as the re-planner's
``DriftDetector`` (a series sitting exactly at a threshold never fires).
Tier 2 is the statistical layer: windowed Mann-Whitney U and
Kolmogorov-Smirnov tests comparing the live latency distribution against a
warm baseline window, catching tail-shape shifts (a straggler window that
moves p99 but not the mean) that threshold rules miss.

Breaches climb a degradation ladder instead of letting the tail blow up:

* level 1 — probabilistic load shedding at ``shed`` fraction (admission
  control; voluntary, so it is excluded from the availability signal);
* level 2 — per-query deadlines with timeout events and budgeted retries
  under exponential backoff + jitter (a retry-storm guard caps the live
  retry fraction; retries respect the remaining deadline);
* level 3 — quality fallback: cache-hot-only gathers at a reduced cost
  multiplier, counted as ``degraded`` completions;
* beyond — escalation to the PR-9 re-planner.

Recovery walks the ladder back down one level at a time, but only once
tier 2 reports the live and baseline distributions reconciled.

``--slo`` specs use the shared grammar of :mod:`repro.serving.spec`:
``p95@<beta>[:key=value,...]`` — the beta is a multiple of the tenant's
SLA, e.g. ``p95@1.5:p99=2.5,shed=0.1,retries=2``.

Everything here is numpy + stdlib (no scipy): the U statistic uses the
normal approximation with tie correction, the two-sample KS p-value the
asymptotic Kolmogorov series with the Stephens small-sample correction.
The same :func:`detect_shift` runs offline in ``scripts/bench_report.py``
as the distribution-aware CI perf gate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.cluster.metrics import linear_percentile
from repro.serving.spec import Grammar, is_off

__all__ = [
    "SloPolicy",
    "SloWatchdog",
    "ShiftVerdict",
    "parse_slo_spec",
    "make_slo_policy",
    "mann_whitney_u",
    "ks_2samp",
    "detect_shift",
    "retry_allowed",
    "MAX_LEVEL",
    "MIN_TIER2_SAMPLES",
    "TICK_SAMPLE_CAP",
    "WATCHDOG_SERIES_KEYS",
]

#: ``--slo`` spec key -> :class:`SloPolicy` field.
_SLO_KEYS = {
    "p99": "p99_beta",
    "availability": "availability_floor",
    "reject": "reject_ceiling",
    "patience": "patience",
    "window": "window",
    "baseline": "baseline",
    "alpha": "alpha",
    "shed": "shed_fraction",
    "deadline": "deadline_beta",
    "timeout": "timeout_beta",
    "retries": "retries",
    "backoff": "backoff_s",
    "jitter": "jitter",
    "storm": "storm",
    "recover": "recover_patience",
    "escalate": "escalate_patience",
    "quality": "quality",
}

_GRAMMAR = Grammar(
    what="slo",
    kinds=("p95",),
    kind_label="slo rule",
    at_label="beta",
    hint=(
        "expected 'p95@<beta>[:key=value,...]' with the beta a multiple of the "
        f"SLA and optional keys {', '.join(_SLO_KEYS)} "
        "(e.g. 'p95@1.5:p99=2.5,shed=0.1,retries=2')"
    ),
)

#: Degradation-ladder ceiling: 1 shed, 2 +deadlines/retries, 3 +fallback.
MAX_LEVEL = 3

#: Below this many samples on either side, tier-2 tests abstain (p = 1.0):
#: the asymptotic p-values are meaningless on a handful of points, and an
#: abstention can never fire a degrade (mirrors the strict-breach rule).
MIN_TIER2_SAMPLES = 8

#: At most this many latencies feed the tier-2 windows per sample tick,
#: taken at a deterministic stride (no RNG) so a hot tick cannot make the
#: watchdog's own bookkeeping the bottleneck.
TICK_SAMPLE_CAP = 512

#: Row order of the per-interval watchdog series in streamed spool chunks.
WATCHDOG_SERIES_KEYS = ("level", "shed", "timeouts", "degraded")


@dataclass(frozen=True)
class SloPolicy:
    """Tier-1 thresholds, tier-2 windows and the degradation-ladder knobs.

    All latency knobs are multiples of the tenant's SLA; every tier-1 rule
    uses strict comparisons, so a signal sitting exactly at its threshold
    never counts as a breach.  ``availability_floor=0`` and
    ``reject_ceiling=1`` disable those rules; ``alpha=0`` disables tier 2.
    """

    #: Interval p95 must exceed ``p95_beta * sla_s`` strictly to breach.
    p95_beta: float = 1.5
    #: Interval p99 must exceed ``p99_beta * sla_s`` strictly to breach.
    p99_beta: float = 2.5
    #: Interval availability (involuntary failures over admitted queries)
    #: must drop strictly below this to breach.
    availability_floor: float = 0.99
    #: Interval rejection rate must exceed this strictly to breach.
    reject_ceiling: float = 0.05
    #: Consecutive breached ticks before the ladder degrades one level.
    patience: int = 2
    #: Live tier-2 window, in sample ticks.
    window: int = 4
    #: Warm baseline window, in (non-idle) sample ticks.
    baseline: int = 4
    #: Tier-2 significance: a shift needs ``min(p_mw, p_ks) < alpha``.
    alpha: float = 0.01
    #: Fraction of arrivals shed at ladder level >= 1.
    shed_fraction: float = 0.1
    #: Per-query hard deadline, as a multiple of the SLA.
    deadline_beta: float = 4.0
    #: Per-attempt timeout, as a multiple of the SLA (<= deadline_beta).
    timeout_beta: float = 2.0
    #: Retry budget per query (0 disables retries).
    retries: int = 2
    #: Base backoff before the first retry; doubles per attempt.
    backoff_s: float = 0.05
    #: Jitter factor: each backoff is stretched by ``1 + jitter * U[0,1)``.
    jitter: float = 0.5
    #: Retry-storm guard: live retries may not reach this fraction of the
    #: live in-flight queries (0 disables retries outright).
    storm: float = 0.25
    #: Consecutive clean *and reconciled* ticks before recovering a level.
    recover_patience: int = 2
    #: Consecutive breached ticks at the top level before escalating to
    #: the re-planner.
    escalate_patience: int = 4
    #: Fallback cost fraction under the homogeneous cost model, which has no
    #: per-query gathers (the skewed model prices each query's cache-hot-only
    #: share of its gathers instead).
    quality: float = 0.25

    def __post_init__(self) -> None:
        if self.p95_beta <= 0.0:
            raise ValueError(f"p95 beta must be positive, got {self.p95_beta}")
        if self.p99_beta <= 0.0:
            raise ValueError(f"p99 beta must be positive, got {self.p99_beta}")
        if not 0.0 <= self.availability_floor <= 1.0:
            raise ValueError(
                f"availability must be in [0, 1], got {self.availability_floor}"
            )
        if not 0.0 <= self.reject_ceiling <= 1.0:
            raise ValueError(f"reject must be in [0, 1], got {self.reject_ceiling}")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        if self.baseline < 1:
            raise ValueError(f"baseline must be at least 1, got {self.baseline}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 <= self.shed_fraction <= 1.0:
            raise ValueError(f"shed must be in [0, 1], got {self.shed_fraction}")
        if self.deadline_beta <= 0.0:
            raise ValueError(f"deadline must be positive, got {self.deadline_beta}")
        if self.timeout_beta <= 0.0:
            raise ValueError(f"timeout must be positive, got {self.timeout_beta}")
        if self.timeout_beta > self.deadline_beta:
            raise ValueError(
                f"timeout ({self.timeout_beta}) must not exceed the deadline "
                f"({self.deadline_beta})"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        if self.backoff_s < 0.0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff_s}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be non-negative, got {self.jitter}")
        if not 0.0 <= self.storm <= 1.0:
            raise ValueError(f"storm must be in [0, 1], got {self.storm}")
        if self.recover_patience < 1:
            raise ValueError(
                f"recover must be at least 1, got {self.recover_patience}"
            )
        if self.escalate_patience < 1:
            raise ValueError(
                f"escalate must be at least 1, got {self.escalate_patience}"
            )
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality must be in [0, 1], got {self.quality}")


def parse_slo_spec(spec: str) -> SloPolicy:
    """Parse a ``p95@<beta>[:key=value,...]`` SLO spec (see :mod:`repro.serving.spec`)."""
    (clause,) = _GRAMMAR.parse(spec)
    return clause.build(SloPolicy, _SLO_KEYS, p95_beta=clause.at)


def make_slo_policy(spec: str | SloPolicy | None) -> SloPolicy | None:
    """Resolve an SLO knob: off (``None``/``""``/``"none"``), instance or spec string."""
    if is_off(spec):
        return None
    return parse_slo_spec(spec) if isinstance(spec, str) else spec


# ----------------------------------------------------------------------
# Tier-2 distribution tests (numpy + stdlib; no scipy dependency)
# ----------------------------------------------------------------------
def mann_whitney_u(
    a: np.ndarray, b: np.ndarray, alternative: str = "greater"
) -> tuple[float, float]:
    """Mann-Whitney U of ``a`` against ``b``: ``(U1, p)``.

    Normal approximation with tie correction and continuity correction.
    ``alternative="greater"`` tests whether ``a`` is stochastically greater
    than ``b`` (one-sided); ``"two-sided"`` tests any shift.  Degenerate
    inputs (either side empty, or all values tied) return ``p = 1.0``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        return 0.0, 1.0
    combined = np.concatenate([a, b])
    _, inverse, counts = np.unique(combined, return_inverse=True, return_counts=True)
    # Average rank of each unique value = cumulative count minus half its
    # tie-run (1-based midrank), broadcast back through the inverse map.
    avg_ranks = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = avg_ranks[inverse]
    u1 = float(np.sum(ranks[:n1])) - n1 * (n1 + 1) / 2.0
    n = n1 + n2
    mean = n1 * n2 / 2.0
    tie_term = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return u1, 1.0
    sigma = math.sqrt(variance)
    if alternative == "greater":
        z = (u1 - mean - 0.5) / sigma
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
    elif alternative == "two-sided":
        z = max(abs(u1 - mean) - 0.5, 0.0) / sigma
        p = math.erfc(z / math.sqrt(2.0))
    else:
        raise ValueError(f"unknown alternative {alternative!r}")
    return u1, min(max(p, 0.0), 1.0)


def ks_2samp(
    a: np.ndarray, b: np.ndarray, alternative: str = "greater"
) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov of ``a`` against ``b``: ``(D, p)``.

    Asymptotic p-value with the Stephens small-sample correction
    (``en + 0.12 + 0.11/en``).  ``alternative="greater"`` tests whether
    ``a`` is stochastically greater than ``b`` — i.e. its empirical CDF
    runs *below* ``b``'s — via the one-sided statistic ``D+``.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        return 0.0, 1.0
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / n1
    cdf_b = np.searchsorted(b, grid, side="right") / n2
    if alternative == "greater":
        d = max(float(np.max(cdf_b - cdf_a)), 0.0)
    elif alternative == "two-sided":
        d = float(np.max(np.abs(cdf_a - cdf_b)))
    else:
        raise ValueError(f"unknown alternative {alternative!r}")
    en = math.sqrt(n1 * n2 / (n1 + n2))
    arg = (en + 0.12 + 0.11 / en) * d
    if alternative == "greater":
        p = math.exp(-2.0 * arg * arg)
    else:
        p = 2.0 * sum(
            (-1.0) ** (k - 1) * math.exp(-2.0 * (k * arg) ** 2) for k in range(1, 101)
        )
    return d, min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class ShiftVerdict:
    """One tier-2 comparison: did the live window shift off the baseline?"""

    shifted: bool
    mw_p: float
    ks_p: float
    samples: tuple[int, int]


def detect_shift(
    live: np.ndarray,
    baseline: np.ndarray,
    alpha: float = 0.01,
    min_samples: int = MIN_TIER2_SAMPLES,
    alternative: str = "greater",
) -> ShiftVerdict:
    """Tier-2 verdict: is ``live`` stochastically worse than ``baseline``?

    Runs both tests and flags a shift when *either* rejects at ``alpha``
    (strictly: ``p < alpha``, so ``alpha = 0`` never flags).  With fewer
    than ``min_samples`` on either side the tests abstain (``p = 1.0``) —
    the minimum-window contract the boundary tests lock.
    """
    live = np.asarray(live, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    sizes = (int(live.size), int(baseline.size))
    if min(sizes) < min_samples:
        return ShiftVerdict(False, 1.0, 1.0, sizes)
    _, mw_p = mann_whitney_u(live, baseline, alternative=alternative)
    _, ks_p = ks_2samp(live, baseline, alternative=alternative)
    return ShiftVerdict(min(mw_p, ks_p) < alpha, mw_p, ks_p, sizes)


def retry_allowed(retries_live: int, inflight_live: int, storm: float) -> bool:
    """Retry-storm guard: may one more retry launch right now?

    The cap is ``max(1, storm * inflight_live)`` — at least one retry may
    always be live when the guard is enabled, and a retry exactly *at* the
    cap never launches (strict ``<``, mirroring the tier-1 rules).
    ``storm <= 0`` disables retries outright.
    """
    if storm <= 0.0:
        return False
    cap = max(1.0, storm * float(inflight_live))
    return float(retries_live) < cap


def _cap_tick(latencies_s: list[float]) -> np.ndarray:
    """One tick's tier-2 contribution, strided down to ``TICK_SAMPLE_CAP``."""
    tick = np.asarray(latencies_s, dtype=np.float64)
    if tick.size > TICK_SAMPLE_CAP:
        # Deterministic even-stride thinning; no RNG, so a watchdog that
        # never actuates still never perturbs any random stream.
        indices = np.linspace(0, tick.size - 1, TICK_SAMPLE_CAP).astype(np.int64)
        tick = tick[indices]
    return tick


class SloWatchdog:
    """Per-tenant ladder state machine fed one observation per sample tick.

    :meth:`observe` takes the interval's end-to-end latencies, availability
    and rejection rate, updates both detection tiers, and returns the
    actions the engine must apply as typed WATCHDOG heap events: at most
    one of ``("degrade", level)``, ``("recover", level)``, ``("escalate",)``.

    The watchdog itself draws no randomness — only the engine's shedding
    decisions and retry jitter touch the dedicated ``[seed, 5]`` stream.
    """

    def __init__(self, policy: SloPolicy, sla_s: float) -> None:
        if sla_s <= 0.0:
            raise ValueError(f"sla_s must be positive, got {sla_s}")
        self.policy = policy
        self.sla_s = float(sla_s)
        self.level = 0
        self.tier1_breaches = 0
        self.tier2_flags = 0
        self.escalations = 0
        self.recoveries = 0
        #: Human-readable rule breaches of the last tick (explainability).
        self.last_breaches: list[str] = []
        self.last_verdict: ShiftVerdict | None = None
        self._streak = 0
        self._clean_streak = 0
        self._escalate_streak = 0
        self._baseline_ticks: list[np.ndarray] = []
        self._baseline_count = 0
        self._baseline: np.ndarray | None = None
        self._live: deque[np.ndarray] = deque(maxlen=policy.window)

    @property
    def baseline_warm(self) -> bool:
        """Whether the warm baseline window is fully collected."""
        return self._baseline is not None

    def _tier1(
        self, tick: np.ndarray, availability: float, reject_rate: float
    ) -> list[str]:
        policy = self.policy
        sla = self.sla_s
        breaches: list[str] = []
        if tick.size:
            p95 = linear_percentile(tick, 95)
            if p95 > policy.p95_beta * sla:
                breaches.append(
                    f"p95 {p95 * 1e3:.0f}ms > {policy.p95_beta:g}x SLA"
                )
            p99 = linear_percentile(tick, 99)
            if p99 > policy.p99_beta * sla:
                breaches.append(
                    f"p99 {p99 * 1e3:.0f}ms > {policy.p99_beta:g}x SLA"
                )
        if availability < policy.availability_floor:
            breaches.append(
                f"availability {availability:.3f} < {policy.availability_floor:g}"
            )
        if reject_rate > policy.reject_ceiling:
            breaches.append(
                f"reject rate {reject_rate:.3f} > {policy.reject_ceiling:g}"
            )
        return breaches

    def _tier2(self, tick: np.ndarray) -> bool:
        policy = self.policy
        if self._baseline is None:
            # Still warming the baseline: idle ticks do not count toward it
            # (an empty baseline would make every later window a "shift").
            if tick.size:
                self._baseline_ticks.append(tick)
                self._baseline_count += 1
                if self._baseline_count >= policy.baseline:
                    self._baseline = np.concatenate(self._baseline_ticks)
                    self._baseline_ticks = []
            self.last_verdict = None
            return False
        if tick.size:
            self._live.append(tick)
        if not self._live:
            self.last_verdict = None
            return False
        live = np.concatenate(list(self._live))
        verdict = detect_shift(live, self._baseline, alpha=policy.alpha)
        self.last_verdict = verdict
        return verdict.shifted

    def observe(
        self,
        now: float,
        latencies_s: list[float],
        availability: float,
        reject_rate: float,
    ) -> list[tuple]:
        """Advance both tiers one tick; return the ladder actions (if any)."""
        policy = self.policy
        tick = _cap_tick(latencies_s)
        breaches = self._tier1(tick, availability, reject_rate)
        self.last_breaches = breaches
        tier1 = bool(breaches)
        if tier1:
            self.tier1_breaches += 1
        tier2 = self._tier2(tick)
        if tier2:
            self.tier2_flags += 1
        actions: list[tuple] = []
        if tier1 or tier2:
            self._clean_streak = 0
            self._streak += 1
            if self.level >= MAX_LEVEL:
                self._escalate_streak += 1
                if self._escalate_streak >= policy.escalate_patience:
                    self._escalate_streak = 0
                    self.escalations += 1
                    actions.append(("escalate",))
            elif self._streak >= policy.patience:
                self._streak = 0
                self.level += 1
                actions.append(("degrade", self.level))
        else:
            # A clean tick is also a *reconciled* one: tier 2 just reported
            # no live/baseline shift (or abstained for lack of signal).
            self._streak = 0
            self._escalate_streak = 0
            if self.level > 0:
                self._clean_streak += 1
                if self._clean_streak >= policy.recover_patience:
                    self._clean_streak = 0
                    self.level -= 1
                    self.recoveries += 1
                    actions.append(("recover", self.level))
            else:
                self._clean_streak = 0
        return actions
