"""Embedding-table access distributions.

ElasticRec's utility-based allocation is driven entirely by the *access
frequency distribution* of embedding vectors: once a table is sorted by
hotness (Figure 8(b) of the paper), the planner only ever needs the CDF of
accesses over the sorted ranks (Algorithm 1, line 11) and, for the memory
utility analysis of Figures 14/17, the expected number of distinct vectors
touched by a stream of lookups.

Paper-scale tables hold tens of millions of rows, so this module provides
analytic implementations that never materialise per-row arrays unless the
table is small:

* :class:`ZipfDistribution` — rank-frequency power law ``p_i ∝ i^{-alpha}``
  with a hybrid exact-head / integral-tail generalized harmonic sum.
* :class:`EmpiricalDistribution` — built from observed per-row access counts
  (used for small tables and in tests as ground truth).
* :class:`UniformDistribution` — the no-locality reference point.

All distributions are expressed over *hot-sorted ranks*: rank 0 is the hottest
vector.  The paper's locality metric ``P`` (fraction of accesses covered by
the hottest 10% of vectors, Section V-C) maps onto :meth:`locality`.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

__all__ = [
    "AccessDistribution",
    "ZipfDistribution",
    "EmpiricalDistribution",
    "UniformDistribution",
    "MixtureDistribution",
    "DriftingDistribution",
    "DRIFT_SCHEDULES",
    "hot_prefix_rows",
    "locality_of_probabilities",
    "solve_alpha_for_locality",
]

#: Number of head ranks whose probabilities are computed exactly before the
#: integral tail approximation takes over.
_EXACT_HEAD = 1 << 16

#: Chunk size used when summing per-rank quantities over very large tables.
_CHUNK = 1 << 20

#: Default "hot" prefix used by the paper's locality metric P.
DEFAULT_TOP_FRACTION = 0.1


def _generalized_harmonic(
    n: int, alpha: float, head_powers: np.ndarray | None = None
) -> float:
    """Return ``sum_{i=1}^{n} i^{-alpha}``.

    Exact for ``n <= _EXACT_HEAD``; otherwise the head is summed exactly and
    the tail is approximated by the midpoint integral
    ``∫_{m+1/2}^{n+1/2} x^{-alpha} dx`` which is accurate to well under 0.1%
    for the table sizes used in the paper.  ``head_powers``, when given,
    holds ``i^{-alpha}`` for ``i = 1, 2, ...`` over at least the exact head;
    its prefix is summed instead of being recomputed (the same values).
    """
    if n <= 0:
        return 0.0
    head = min(n, _EXACT_HEAD)
    if head_powers is None:
        head_powers = np.arange(1, head + 1, dtype=np.float64) ** (-alpha)
    total = float(np.sum(head_powers[:head]))
    if n > head:
        lo = head + 0.5
        hi = n + 0.5
        if abs(alpha - 1.0) < 1e-12:
            total += math.log(hi / lo)
        else:
            total += (hi ** (1.0 - alpha) - lo ** (1.0 - alpha)) / (1.0 - alpha)
    return total


class AccessDistribution(abc.ABC):
    """Access-frequency model over the hot-sorted ranks of one embedding table."""

    def __init__(self, num_items: int) -> None:
        if num_items <= 0:
            raise ValueError(f"num_items must be positive, got {num_items}")
        self._num_items = int(num_items)

    @property
    def num_items(self) -> int:
        """Number of embedding vectors in the table."""
        return self._num_items

    @abc.abstractmethod
    def coverage(self, k: int) -> float:
        """Expected fraction of accesses that hit the ``k`` hottest vectors.

        ``coverage(0) == 0`` and ``coverage(num_items) == 1``.  This is the
        CDF used by Algorithm 1 (``CDF(j) - CDF(k)``).
        """

    @abc.abstractmethod
    def probabilities(self) -> np.ndarray:
        """Per-rank access probabilities, hottest first (may be large)."""

    @abc.abstractmethod
    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` accesses; returns hot-sorted rank ids in ``[0, num_items)``."""

    @abc.abstractmethod
    def expected_unique(self, num_draws: int, lo: int = 0, hi: int | None = None) -> float:
        """Expected number of distinct ranks in ``[lo, hi)`` touched by ``num_draws`` accesses.

        ``num_draws`` counts accesses to the *whole* table; only those landing
        in the rank range contribute.  Used by the memory-utility analysis.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def coverage_range(self, lo: int, hi: int) -> float:
        """Fraction of accesses landing in the rank interval ``[lo, hi)``."""
        lo, hi = self._validate_range(lo, hi)
        return self.coverage(hi) - self.coverage(lo)

    def cdf(self, ks: Sequence[int]) -> np.ndarray:
        """Vector-valued :meth:`coverage` over an array of prefix lengths."""
        return np.array([self.coverage(int(k)) for k in ks], dtype=np.float64)

    def locality(self, top_fraction: float = DEFAULT_TOP_FRACTION) -> float:
        """The paper's locality metric ``P`` for an arbitrary hot prefix."""
        if not 0.0 < top_fraction <= 1.0:
            raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction}")
        k = max(1, int(math.ceil(top_fraction * self.num_items)))
        return self.coverage(k)

    def _validate_range(self, lo: int, hi: int | None) -> tuple[int, int]:
        if hi is None:
            hi = self.num_items
        lo = int(lo)
        hi = int(hi)
        if not 0 <= lo <= hi <= self.num_items:
            raise ValueError(
                f"invalid rank range [{lo}, {hi}) for table with {self.num_items} rows"
            )
        return lo, hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(num_items={self.num_items})"


class ZipfDistribution(AccessDistribution):
    """Rank-frequency power law ``p_i ∝ (i+1)^{-alpha}`` over hot-sorted ranks.

    ``alpha == 0`` degenerates to the uniform distribution; larger ``alpha``
    concentrates accesses on the hottest ranks.  Use
    :meth:`ZipfDistribution.from_locality` to construct a distribution with a
    prescribed paper-style locality ``P``.
    """

    def __init__(self, num_items: int, alpha: float) -> None:
        super().__init__(num_items)
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self._alpha = float(alpha)
        # The exact head's rank powers, kept: every ``coverage`` call sums a
        # prefix of them (the planner makes about a thousand per plan).
        head = min(self.num_items, _EXACT_HEAD)
        self._head_powers = np.arange(1, head + 1, dtype=np.float64) ** (-self._alpha)
        self._harmonic_total = self._harmonic(self.num_items)
        # Built on the first ``sample``: the planner's distributions are
        # only ever asked for coverage.
        self._head_cdf: np.ndarray | None = None

    @classmethod
    def from_locality(
        cls,
        num_items: int,
        locality: float,
        top_fraction: float = DEFAULT_TOP_FRACTION,
    ) -> "ZipfDistribution":
        """Build a Zipf distribution whose hottest ``top_fraction`` covers ``locality``."""
        alpha = solve_alpha_for_locality(num_items, locality, top_fraction)
        return cls(num_items, alpha)

    @property
    def alpha(self) -> float:
        """Power-law exponent."""
        return self._alpha

    def _harmonic(self, n: int) -> float:
        """:func:`_generalized_harmonic` at this ``alpha``, from the kept powers."""
        return _generalized_harmonic(n, self._alpha, self._head_powers)

    def coverage(self, k: int) -> float:
        k = int(k)
        if k <= 0:
            return 0.0
        if k >= self.num_items:
            return 1.0
        return self._harmonic(k) / self._harmonic_total

    def probabilities(self) -> np.ndarray:
        ranks = np.arange(1, self.num_items + 1, dtype=np.float64)
        return ranks ** (-self._alpha) / self._harmonic_total

    def probability_range(self, lo: int, hi: int | None = None) -> np.ndarray:
        """Per-rank probabilities restricted to ``[lo, hi)`` (0-based ranks)."""
        lo, hi = self._validate_range(lo, hi)
        ranks = np.arange(lo + 1, hi + 1, dtype=np.float64)
        return ranks ** (-self._alpha) / self._harmonic_total

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be non-negative")
        u = rng.random(size)
        if self._head_cdf is None:
            self._head_cdf = np.cumsum(self._head_powers) / self._harmonic_total
        head = len(self._head_cdf)
        head_coverage = float(self._head_cdf[-1]) if head else 0.0
        out = np.empty(size, dtype=np.int64)
        in_head = u <= head_coverage
        if np.any(in_head):
            out[in_head] = np.searchsorted(self._head_cdf, u[in_head], side="left")
        in_tail = ~in_head
        if np.any(in_tail):
            out[in_tail] = self._invert_tail(u[in_tail], head)
        return np.clip(out, 0, self.num_items - 1)

    def _invert_tail(self, u: np.ndarray, head: int) -> np.ndarray:
        """Continuous inverse-CDF for ranks beyond the exact head."""
        target_mass = u * self._harmonic_total - self._harmonic(head)
        lo = head + 0.5
        if abs(self._alpha - 1.0) < 1e-12:
            x = lo * np.exp(target_mass)
        else:
            base = lo ** (1.0 - self._alpha) + target_mass * (1.0 - self._alpha)
            base = np.maximum(base, 1e-300)
            x = base ** (1.0 / (1.0 - self._alpha))
        ranks = np.floor(x - 0.5).astype(np.int64)
        return np.clip(ranks, head, self.num_items - 1)

    def expected_unique(self, num_draws: int, lo: int = 0, hi: int | None = None) -> float:
        lo, hi = self._validate_range(lo, hi)
        if num_draws <= 0 or lo == hi:
            return 0.0
        total = 0.0
        for start in range(lo, hi, _CHUNK):
            stop = min(start + _CHUNK, hi)
            ranks = np.arange(start + 1, stop + 1, dtype=np.float64)
            probs = ranks ** (-self._alpha) / self._harmonic_total
            # 1 - (1 - p)^D, computed in log space for numerical stability.
            total += float(np.sum(-np.expm1(num_draws * np.log1p(-probs))))
        return total


class UniformDistribution(ZipfDistribution):
    """All embedding vectors equally likely (``alpha == 0``)."""

    def __init__(self, num_items: int) -> None:
        super().__init__(num_items, alpha=0.0)


class EmpiricalDistribution(AccessDistribution):
    """Distribution built from observed per-row access counts.

    The counts are sorted descending internally so that, as everywhere else in
    this package, rank 0 refers to the hottest vector.  This mirrors the
    paper's preprocessing step of sorting the table by access frequency.
    """

    def __init__(self, counts: Sequence[float] | np.ndarray) -> None:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if counts.size == 0:
            raise ValueError("counts must be non-empty")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = float(counts.sum())
        if total <= 0:
            raise ValueError("counts must contain at least one access")
        super().__init__(counts.size)
        self._sorted_counts = np.sort(counts)[::-1]
        self._probs = self._sorted_counts / total
        self._cdf = np.cumsum(self._probs)
        # Guard against floating point drift at the end of the CDF.
        self._cdf[-1] = 1.0

    def coverage(self, k: int) -> float:
        k = int(k)
        if k <= 0:
            return 0.0
        if k >= self.num_items:
            return 1.0
        return float(self._cdf[k - 1])

    def probabilities(self) -> np.ndarray:
        return self._probs.copy()

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be non-negative")
        u = rng.random(size)
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)

    def expected_unique(self, num_draws: int, lo: int = 0, hi: int | None = None) -> float:
        lo, hi = self._validate_range(lo, hi)
        if num_draws <= 0 or lo == hi:
            return 0.0
        probs = self._probs[lo:hi]
        nonzero = probs > 0
        return float(np.sum(-np.expm1(num_draws * np.log1p(-probs[nonzero]))))


class MixtureDistribution(AccessDistribution):
    """Convex mixture of two distributions over the same hot-sorted ranks.

    Every access picks the second component with probability ``weight`` and
    the first otherwise, so per-rank probabilities — and therefore
    :meth:`coverage` — are the exact weighted sums of the components'.  This
    is the instantaneous distribution a :class:`DriftingDistribution` exposes
    partway through a drift, and what the planner re-partitions against when
    a mid-run re-plan fires.
    """

    def __init__(
        self,
        start: AccessDistribution,
        end: AccessDistribution,
        weight: float,
    ) -> None:
        if start.num_items != end.num_items:
            raise ValueError(
                "mixture endpoints must cover the same table: "
                f"{start.num_items} vs {end.num_items} rows"
            )
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {weight}")
        super().__init__(start.num_items)
        self._start = start
        self._end = end
        self._weight = float(weight)

    @property
    def weight(self) -> float:
        """Probability that an access draws from the end-point distribution."""
        return self._weight

    def coverage(self, k: int) -> float:
        w = self._weight
        return (1.0 - w) * self._start.coverage(k) + w * self._end.coverage(k)

    def probabilities(self) -> np.ndarray:
        w = self._weight
        return (1.0 - w) * self._start.probabilities() + w * self._end.probabilities()

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be non-negative")
        from_end = rng.random(size) < self._weight
        out = np.empty(size, dtype=np.int64)
        num_end = int(np.count_nonzero(from_end))
        if num_end < size:
            out[~from_end] = self._start.sample(size - num_end, rng)
        if num_end:
            out[from_end] = self._end.sample(num_end, rng)
        return out

    def expected_unique(self, num_draws: int, lo: int = 0, hi: int | None = None) -> float:
        lo, hi = self._validate_range(lo, hi)
        if num_draws <= 0 or lo == hi:
            return 0.0
        start, end = self._start, self._end
        if hasattr(start, "probability_range") and hasattr(end, "probability_range"):
            # Exact path when both endpoints expose per-rank probabilities in
            # chunks (the Zipf family): mix per rank, then 1 - (1-p)^D.
            w = self._weight
            total = 0.0
            for chunk_lo in range(lo, hi, _CHUNK):
                chunk_hi = min(chunk_lo + _CHUNK, hi)
                probs = (1.0 - w) * start.probability_range(chunk_lo, chunk_hi)
                probs += w * end.probability_range(chunk_lo, chunk_hi)
                total += float(np.sum(-np.expm1(num_draws * np.log1p(-probs))))
            return total
        # Fallback: weighted sum of the components' expectations.  Exact only
        # when the components' hot ranks coincide; documented approximation.
        w = self._weight
        return (1.0 - w) * start.expected_unique(num_draws, lo, hi) + w * end.expected_unique(num_draws, lo, hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MixtureDistribution({self._start!r}, {self._end!r}, "
            f"weight={self._weight})"
        )


#: Drift schedules understood by :class:`DriftingDistribution`.
DRIFT_SCHEDULES = ("step", "linear", "oscillate")


class DriftingDistribution:
    """Time-indexed interpolation between two :class:`AccessDistribution` endpoints.

    Not itself an :class:`AccessDistribution` — it is a *schedule* over them:
    :meth:`weight_at` maps a simulation time to the mixture weight of the end
    endpoint, and :meth:`at` materialises the instantaneous distribution.  At
    weight exactly ``0.0`` / ``1.0`` the original endpoint objects are
    returned, so the boundaries of a drift are bit-identical with static runs
    against the endpoints.

    Schedules (``at_s`` is when the drift starts; ``duration_s`` scales it):

    * ``step`` — weight jumps from 0 to 1 at ``at_s``; ``duration_s`` unused.
    * ``linear`` — weight ramps 0 → 1 over ``[at_s, at_s + duration_s]``.
    * ``oscillate`` — raised-cosine oscillation with period ``duration_s``
      starting (at weight 0) at ``at_s``; hits weight 1 every half period.
    """

    def __init__(
        self,
        start: AccessDistribution,
        end: AccessDistribution,
        schedule: str = "linear",
        at_s: float = 0.0,
        duration_s: float = 0.0,
    ) -> None:
        if start.num_items != end.num_items:
            raise ValueError(
                "drift endpoints must cover the same table: "
                f"{start.num_items} vs {end.num_items} rows"
            )
        if schedule not in DRIFT_SCHEDULES:
            known = ", ".join(DRIFT_SCHEDULES)
            raise ValueError(f"unknown drift schedule {schedule!r}; choose from {known}")
        if at_s < 0.0:
            raise ValueError(f"drift start must be non-negative, got {at_s}")
        if schedule != "step" and duration_s <= 0.0:
            raise ValueError(
                f"{schedule} drift needs a positive duration, got {duration_s}"
            )
        self._start = start
        self._end = end
        self._schedule = schedule
        self._at_s = float(at_s)
        self._duration_s = float(duration_s)

    @property
    def start(self) -> AccessDistribution:
        """The distribution before the drift begins."""
        return self._start

    @property
    def end(self) -> AccessDistribution:
        """The distribution the drift moves toward."""
        return self._end

    @property
    def schedule(self) -> str:
        """One of :data:`DRIFT_SCHEDULES`."""
        return self._schedule

    @property
    def num_items(self) -> int:
        """Number of embedding vectors in the (shared) table."""
        return self._start.num_items

    def weight_at(self, t: float | np.ndarray) -> float | np.ndarray:
        """Mixture weight of the end endpoint at simulation time ``t``.

        Accepts a scalar or an array (vectorised over query arrival times);
        results are clamped to ``[0, 1]``.
        """
        times = np.asarray(t, dtype=np.float64)
        elapsed = times - self._at_s
        if self._schedule == "step":
            weights = np.where(elapsed >= 0.0, 1.0, 0.0)
        elif self._schedule == "linear":
            weights = np.clip(elapsed / self._duration_s, 0.0, 1.0)
        else:  # oscillate
            phase = 2.0 * math.pi * elapsed / self._duration_s
            weights = np.where(elapsed >= 0.0, 0.5 * (1.0 - np.cos(phase)), 0.0)
            weights = np.clip(weights, 0.0, 1.0)
        if np.isscalar(t) or times.ndim == 0:
            return float(weights)
        return weights

    def at(self, t: float) -> AccessDistribution:
        """Instantaneous distribution at time ``t``.

        Returns the *endpoint objects themselves* when the weight is exactly
        0 or 1, and a :class:`MixtureDistribution` in between.
        """
        weight = float(self.weight_at(float(t)))
        if weight <= 0.0:
            return self._start
        if weight >= 1.0:
            return self._end
        return MixtureDistribution(self._start, self._end, weight)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DriftingDistribution({self._start!r} -> {self._end!r}, "
            f"schedule={self._schedule!r}, at_s={self._at_s}, "
            f"duration_s={self._duration_s})"
        )


def hot_prefix_rows(
    distribution: AccessDistribution,
    *,
    row_fraction: float | None = None,
    coverage: float | None = None,
) -> int:
    """Rows in a distribution's hot prefix, by one shared definition.

    Every "hot set" in the codebase is a prefix of the hot-sorted ranks; the
    two ways of sizing it both live here so planners and cost models agree on
    which rows are hot:

    * ``row_fraction`` — the paper's locality parameterisation: the hottest
      ``ceil(row_fraction * num_items)`` rows (at least one).  This is the
      prefix :class:`~repro.serving.workload.SkewedCostModel` charges
      ``hot_cost_fraction`` for.
    * ``coverage`` — the caching literature's parameterisation: the smallest
      prefix whose accesses cover the target hit rate, found by bisection.
      This is the prefix ``CachedModelWisePlanner`` sizes its HBM cache from.

    Exactly one of the two must be given.  The definitions meet through
    :meth:`AccessDistribution.coverage`: for any distribution,
    ``hot_prefix_rows(d, coverage=d.coverage(hot_prefix_rows(d,
    row_fraction=f)))`` returns the same prefix (modulo flat stretches of the
    CDF, where the coverage form picks the smallest equivalent prefix).
    """
    if (row_fraction is None) == (coverage is None):
        raise ValueError("pass exactly one of row_fraction or coverage")
    num_items = distribution.num_items
    if row_fraction is not None:
        if not 0.0 < row_fraction <= 1.0:
            raise ValueError("row_fraction must be in (0, 1]")
        return max(1, int(math.ceil(row_fraction * num_items)))
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    lo, hi = 1, num_items
    while lo < hi:
        mid = (lo + hi) // 2
        if distribution.coverage(mid) >= coverage:
            hi = mid
        else:
            lo = mid + 1
    return lo


def locality_of_probabilities(
    probabilities: Sequence[float] | np.ndarray,
    top_fraction: float = DEFAULT_TOP_FRACTION,
) -> float:
    """Locality metric ``P`` of an already hot-sorted probability vector."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probabilities must be a non-empty 1-D array")
    k = max(1, int(math.ceil(top_fraction * probs.size)))
    return float(probs[:k].sum() / probs.sum())


def solve_alpha_for_locality(
    num_items: int,
    locality: float,
    top_fraction: float = DEFAULT_TOP_FRACTION,
    tolerance: float = 1e-4,
    max_alpha: float = 8.0,
) -> float:
    """Find the Zipf exponent whose hottest ``top_fraction`` covers ``locality``.

    The paper parameterises workloads by ``P`` (10%, 50%, 90%, 94%...); this
    inverts that parameterisation via bisection.  ``locality`` values at or
    below ``top_fraction`` (no skew) return ``alpha == 0``.
    """
    if not 0.0 < locality <= 1.0:
        raise ValueError(f"locality must be in (0, 1], got {locality}")
    if num_items <= 1:
        return 0.0
    k = max(1, int(math.ceil(top_fraction * num_items)))
    if k >= num_items or locality <= top_fraction + 1e-12:
        return 0.0

    def coverage_at(alpha: float) -> float:
        return _generalized_harmonic(k, alpha) / _generalized_harmonic(num_items, alpha)

    lo, hi = 0.0, max_alpha
    if coverage_at(hi) < locality:
        # Even an extremely skewed distribution cannot reach the requested
        # locality (possible only for tiny tables); return the most skewed.
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if coverage_at(mid) < locality:
            lo = mid
        else:
            hi = mid
        if hi - lo < tolerance:
            break
    return 0.5 * (lo + hi)
