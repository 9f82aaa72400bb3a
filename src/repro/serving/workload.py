"""Per-query cost models: the serve-time face of the access-skew data layer.

ElasticRec's planning regression is fit over heterogeneous per-query costs:
gather latency scales with the pooling factor and with where in the
hot-sorted access distribution a query's lookups land (Figures 6 and 9 of
the paper).  The serving engine historically collapsed every query to the
deployment's mean service time; the models here put the heterogeneity back
while keeping the planner's estimates as the *mean* of the sampled costs.

A :class:`QueryCostModel` pre-samples one cost *multiplier* per query of a
run, vectorised and seeded, so runs stay deterministic and the sampling adds
O(num_queries) work, not O(num_queries * pooling):

* :class:`HomogeneousCostModel` — the degenerate compatibility mode: every
  multiplier is exactly ``1.0`` and the RNG is never touched, so an engine
  run reproduces the pre-cost-model behaviour bit-for-bit.
* :class:`SkewedCostModel` — samples per-query gather counts from an
  :class:`~repro.data.distributions.AccessDistribution`: each query draws
  ``pooling`` lookups, duplicate rows within one pooled lookup coalesce into
  a single gather, and gathers that land in the hot prefix (cache-resident
  rows) cost a fraction of a cold DRAM gather.  A pool of ``num_profiles``
  query profiles is sampled exactly and queries draw from the pool, keeping
  a 100k-query run within a few percent of the homogeneous engine's
  wall-clock (``benchmarks/bench_query_costs.py`` tracks this).

Multipliers are normalised to mean 1.0 over the profile pool, so the
deployment's planned service time stays the mean service time for any skew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.distributions import (
    DEFAULT_TOP_FRACTION,
    DRIFT_SCHEDULES,
    AccessDistribution,
    DriftingDistribution,
    ZipfDistribution,
    hot_prefix_rows,
)
from repro.model.configs import DLRMConfig
from repro.serving.spec import Grammar, is_off

__all__ = [
    "QueryCostModel",
    "HomogeneousCostModel",
    "SkewedCostModel",
    "COST_MODELS",
    "make_cost_model",
    "cost_model_names",
    "resolve_cost_model_name",
    "DriftSpec",
    "parse_drift_spec",
    "make_drift_model",
    "drift_endpoint_model",
    "sample_drifting_priced",
    "degraded_gather_multiplier",
]


def degraded_gather_multiplier(
    multiplier: float, hot: float, cold: float, hot_cost_fraction: float
) -> float:
    """Cache-hot-only price of a query under watchdog quality fallback.

    A degraded gather serves only the query's hot rows (cache-resident, at
    ``hot_cost_fraction`` per row) and skips the cold rows entirely, so the
    full-price ``multiplier`` scales by the hot share of the priced work:
    ``hot_cost_fraction * hot / (hot_cost_fraction * hot + cold)``.  A query
    with no priced work keeps its multiplier unchanged (nothing to shed).
    """
    hot_cost = hot_cost_fraction * hot
    denominator = hot_cost + cold
    if denominator <= 0.0:
        return multiplier
    return multiplier * (hot_cost / denominator)


class QueryCostModel:
    """Base class: pre-samples one service-cost multiplier per query."""

    #: Registry name of the model.
    name: str = ""

    @property
    def is_homogeneous(self) -> bool:
        """Whether every multiplier is exactly 1.0 (the compatibility mode)."""
        return False

    @property
    def supports_gather_splits(self) -> bool:
        """Whether :meth:`sample_priced` exposes hot/cold gather counts."""
        return False

    def sample(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``num_queries`` cost multipliers (float64, mean ~1.0)."""
        raise NotImplementedError

    def sample_priced(
        self, num_queries: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`sample`, plus per-query hot/cold gather counts and totals.

        Only models with ``supports_gather_splits`` implement this; the
        serving engine's embedding-cache tier needs the split to drive
        per-replica hit rates.  The totals are summed once per *profile* and
        broadcast through the assignment, so pre-pricing a run costs
        O(num_profiles) adds instead of O(num_queries) — and each total is
        the identical ``hot + cold`` IEEE-754 sum the engine would compute
        per query.  Consumes the RNG exactly like :meth:`sample`.
        """
        raise NotImplementedError(
            f"cost model {self.name!r} does not expose per-query gather splits"
        )


class HomogeneousCostModel(QueryCostModel):
    """Every query costs exactly the planner's mean estimate.

    ``sample`` never touches the RNG, so adding a cost model to an engine in
    this mode cannot perturb any other random stream of the run.
    """

    name = "homogeneous"

    @property
    def is_homogeneous(self) -> bool:
        return True

    def sample(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        return np.ones(num_queries, dtype=np.float64)


class SkewedCostModel(QueryCostModel):
    """Per-query gather counts and pooling factors from an access-skew distribution.

    Two sources of heterogeneity, both rooted in the data layer's
    distribution:

    * **Gather counts** — each profile draws ``pooling`` lookups from
      ``distribution``; duplicates coalesce (one gather per distinct row per
      query) and distinct rows inside the hottest ``hot_fraction`` of the
      table cost ``hot_cost_fraction`` of a cold gather.
    * **Pooling factors** — multi-hot feature lengths in production
      recommendation traces are heavy-tailed (the same user-activity power
      law that skews the table's accesses), so each profile also draws a
      mean-one log-normal pooling factor whose coefficient of variation is
      ``pooling_spread`` — by default the distribution's locality ``P``, so
      a more skewed table also serves a wider spread of query sizes.

    Together they reproduce the Figure 9 heterogeneity the planner's QPS
    regression is fit over: under high skew, most queries coalesce into
    cheap, hot, short gathers while a tail of long cold-row queries costs
    several times the mean.
    """

    name = "skewed"

    def __init__(
        self,
        distribution: AccessDistribution,
        pooling: int,
        num_profiles: int = 2048,
        hot_fraction: float = DEFAULT_TOP_FRACTION,
        hot_cost_fraction: float = 0.25,
        pooling_spread: float | None = None,
    ) -> None:
        if pooling <= 0:
            raise ValueError("pooling must be positive")
        if num_profiles <= 0:
            raise ValueError("num_profiles must be positive")
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= hot_cost_fraction <= 1.0:
            raise ValueError("hot_cost_fraction must be in [0, 1]")
        if pooling_spread is not None and pooling_spread < 0:
            raise ValueError("pooling_spread must be non-negative")
        self._distribution = distribution
        self._pooling = int(pooling)
        self._num_profiles = int(num_profiles)
        self._hot_fraction = float(hot_fraction)
        self._hot_cost_fraction = float(hot_cost_fraction)
        self._pooling_spread = (
            float(pooling_spread)
            if pooling_spread is not None
            else distribution.locality(hot_fraction)
        )
        self._hot_rank_limit = hot_prefix_rows(distribution, row_fraction=hot_fraction)

    @property
    def distribution(self) -> AccessDistribution:
        """The access-skew distribution the gather counts are drawn from."""
        return self._distribution

    @property
    def supports_gather_splits(self) -> bool:
        return True

    @property
    def num_profiles(self) -> int:
        """Size of the pre-sampled query-profile pool."""
        return self._num_profiles

    @property
    def hot_fraction(self) -> float:
        """Fraction of hot-sorted rows forming the hot prefix."""
        return self._hot_fraction

    @property
    def hot_cost_fraction(self) -> float:
        """Cost of a hot-prefix gather relative to a cold DRAM gather."""
        return self._hot_cost_fraction

    @property
    def hot_rank_limit(self) -> int:
        """Rows in the hot prefix (shared ``hot_prefix_rows`` definition)."""
        return self._hot_rank_limit

    @property
    def pooling(self) -> int:
        """Mean lookups per query (the paper's pooling factor)."""
        return self._pooling

    @property
    def pooling_spread(self) -> float:
        """Coefficient of variation of the per-query pooling factors."""
        return self._pooling_spread

    def profile_splits(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-profile distinct hot and cold gather counts.

        One row of each result is one query profile: ``pooling`` lookups are
        drawn, duplicates coalesce (one gather per distinct row), and each
        distinct row counts as hot or cold by the shared hot-prefix
        definition.  The split is what the serve-time embedding cache needs:
        hot gathers are the cache-admissible ones.
        """
        ranks = self._distribution.sample(self._num_profiles * self._pooling, rng)
        ranks = np.sort(ranks.reshape(self._num_profiles, self._pooling), axis=1)
        # A rank is a distinct gather where it differs from its predecessor.
        distinct = np.ones_like(ranks, dtype=bool)
        distinct[:, 1:] = ranks[:, 1:] != ranks[:, :-1]
        hot = ranks < self._hot_rank_limit
        hot_gathers = np.sum(distinct & hot, axis=1, dtype=np.float64)
        cold_gathers = np.sum(distinct & ~hot, axis=1, dtype=np.float64)
        return hot_gathers, cold_gathers

    def _raw_pool(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Un-normalised profile pool: (costs, hot, cold) in cold-gather units.

        One draw of the full pool — gather splits then pooling factors — in
        the exact RNG order every sampling path shares.
        """
        hot_gathers, cold_gathers = self.profile_splits(rng)
        costs = cold_gathers + self._hot_cost_fraction * hot_gathers
        if self._pooling_spread > 0:
            # Mean-one log-normal pooling factor: sigma chosen so the factor's
            # coefficient of variation equals pooling_spread.
            sigma = math.sqrt(math.log1p(self._pooling_spread**2))
            pooling_factors = np.exp(
                rng.normal(-0.5 * sigma * sigma, sigma, size=self._num_profiles)
            )
            costs = costs * pooling_factors
        return costs, hot_gathers, cold_gathers

    def _sample_profiles(
        self, num_queries: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
        """Shared sampling core: (costs, assignment, hot, cold) per profile.

        Consumes the RNG identically for every caller, so multipliers from
        :meth:`sample` and :meth:`sample_priced` are bit-identical for
        the same seed.  ``assignment`` is ``None`` on the degenerate
        every-gather-free path, which returns before drawing it (matching the
        historical stream).
        """
        costs, hot_gathers, cold_gathers = self._raw_pool(rng)
        mean = float(costs.mean())
        if mean <= 0:
            # Every gather free (hot_cost_fraction == 0 and all-hot table).
            return np.ones(self._num_profiles, dtype=np.float64), None, hot_gathers, cold_gathers
        assignment = rng.integers(0, self._num_profiles, size=num_queries)
        return costs / mean, assignment, hot_gathers, cold_gathers

    def sample(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        if num_queries == 0:
            # Nothing to draw: return before any RNG use so an idle tenant
            # leaves the shared cost stream untouched (matching the
            # homogeneous model's guarantee).
            return np.empty(0, dtype=np.float64)
        multipliers, assignment, _, _ = self._sample_profiles(num_queries, rng)
        if assignment is None:
            return np.ones(num_queries, dtype=np.float64)
        return multipliers[assignment]

    def sample_priced(
        self, num_queries: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        empty = np.empty(0, dtype=np.float64)
        if num_queries == 0:
            return empty, empty, empty, empty
        multipliers, assignment, hot, cold = self._sample_profiles(num_queries, rng)
        if assignment is None:
            zeros = np.zeros(num_queries, dtype=np.float64)
            ones = np.ones(num_queries, dtype=np.float64)
            return ones, zeros, zeros, zeros
        # Per-profile sums broadcast through the assignment: elementwise
        # (hot + cold)[assignment] == hot[assignment] + cold[assignment],
        # so the totals match a per-query sum bit-for-bit.
        totals = hot + cold
        return (
            multipliers[assignment],
            hot[assignment],
            cold[assignment],
            totals[assignment],
        )


# ---------------------------------------------------------------------------
# Access-skew drift: spec grammar and the drift-aware priced sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftSpec:
    """Parsed ``--drift`` spec: a schedule over two locality endpoints.

    The start endpoint defaults to the workload's own access distribution
    (``from_locality is None``); the end endpoint is always a Zipf
    distribution solved for ``to_locality``.  :meth:`build` materialises the
    :class:`~repro.data.distributions.DriftingDistribution` once the table
    size is known.
    """

    schedule: str
    at_s: float
    duration_s: float
    to_locality: float
    from_locality: float | None = None

    def __post_init__(self) -> None:
        if self.schedule not in DRIFT_SCHEDULES:
            known = ", ".join(DRIFT_SCHEDULES)
            raise ValueError(
                f"unknown drift schedule {self.schedule!r}; choose from {known}"
            )
        if self.at_s < 0.0:
            raise ValueError(f"drift start must be non-negative, got {self.at_s}")
        if self.schedule != "step" and self.duration_s <= 0.0:
            raise ValueError(
                f"{self.schedule} drift needs a positive duration, got {self.duration_s}"
            )
        for label, value in (("to", self.to_locality), ("from", self.from_locality)):
            if value is not None and not 0.0 < value <= 1.0:
                raise ValueError(
                    f"drift {label}= locality must be in (0, 1], got {value}"
                )

    def build(self, distribution: AccessDistribution) -> DriftingDistribution:
        """Materialise the drift against a workload's access distribution."""
        num_items = distribution.num_items
        start = (
            distribution
            if self.from_locality is None
            else ZipfDistribution.from_locality(num_items, self.from_locality)
        )
        end = ZipfDistribution.from_locality(num_items, self.to_locality)
        return DriftingDistribution(
            start, end, schedule=self.schedule, at_s=self.at_s, duration_s=self.duration_s
        )


#: ``--drift`` spec key -> :class:`DriftSpec` field.
_DRIFT_KEYS = {"to": "to_locality", "from": "from_locality"}

_GRAMMAR = Grammar(
    what="drift",
    kinds=DRIFT_SCHEDULES,
    kind_label="drift schedule",
    at_label="start time",
    hint=(
        "expected 'schedule@start[+duration][:key=value,...]' with a schedule "
        f"from {', '.join(DRIFT_SCHEDULES)} and a required to=<locality> "
        "(e.g. 'linear@60+300:to=0.2' or 'step@300:to=0.5,from=0.9')"
    ),
    duration=True,
)


def parse_drift_spec(spec: str) -> DriftSpec:
    """Parse a ``schedule@start[+duration][:key=value,...]`` drift spec.

    The grammar is :mod:`repro.serving.spec`'s.  ``to=<locality>`` is
    required; ``from=<locality>`` overrides the start endpoint (default: the
    workload's own distribution).
    """
    (clause,) = _GRAMMAR.parse(spec)
    if clause.kind == "step" and clause.duration is not None:
        raise clause.error("step takes no duration")
    return clause.build(
        DriftSpec,
        _DRIFT_KEYS,
        schedule=clause.kind,
        at_s=clause.at,
        duration_s=0.0 if clause.duration is None else clause.duration,
    )


def make_drift_model(
    spec: str | DriftSpec | DriftingDistribution | None,
    distribution: AccessDistribution | None = None,
) -> DriftingDistribution | None:
    """Resolve a drift knob into a :class:`DriftingDistribution` (or ``None``).

    Accepts an off spec (``None``, ``""`` or ``"none"``), an already-built
    :class:`DriftingDistribution` (passed through), a :class:`DriftSpec`, or
    a spec string.  Building from a spec needs the workload's access
    ``distribution`` for the table size and default start endpoint.
    """
    if is_off(spec):
        return None
    if isinstance(spec, str):
        spec = parse_drift_spec(spec)
    if isinstance(spec, DriftingDistribution):
        return spec
    if distribution is None:
        raise ValueError("building a drift model from a spec needs a distribution")
    return spec.build(distribution)


def drift_endpoint_model(
    model: "SkewedCostModel", endpoint: AccessDistribution
) -> "SkewedCostModel":
    """A cost model's twin over a drift endpoint distribution.

    Shares ``pooling``, ``num_profiles``, ``hot_fraction`` and
    ``hot_cost_fraction`` with the start model — equal table sizes then give
    equal ``hot_rank_limit``, so the cache tier's pricing grids stay valid
    for profiles drawn from either endpoint.  ``pooling_spread`` re-derives
    from the endpoint's own locality (a more skewed endpoint also serves a
    wider spread of query sizes).
    """
    if endpoint.num_items != model.distribution.num_items:
        raise ValueError(
            "drift endpoint must cover the same table as the cost model: "
            f"{endpoint.num_items} vs {model.distribution.num_items} rows"
        )
    return SkewedCostModel(
        distribution=endpoint,
        pooling=model.pooling,
        num_profiles=model.num_profiles,
        hot_fraction=model.hot_fraction,
        hot_cost_fraction=model.hot_cost_fraction,
    )


def sample_drifting_priced(
    start_model: "SkewedCostModel",
    end_model: "SkewedCostModel",
    weights: np.ndarray,
    cost_rng: np.random.Generator,
    drift_rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Priced per-query costs under access-skew drift.

    ``weights[i]`` is the drift weight at query ``i``'s arrival time: the
    probability its gather set is drawn from the end endpoint's profile pool
    instead of the start endpoint's.  Returns
    ``(multipliers, hot, cold, total, start_mean, end_mean)`` where the pool
    means are in cold-gather units (the multiplier normaliser and, at
    re-plan cutover, the renormaliser).

    RNG contract (the satellite-3 isolation lock): ``cost_rng`` — the
    engine's ``[seed, 2]`` stream — is consumed *exactly* as the drift-free
    :meth:`SkewedCostModel.sample_priced` path consumes it (start pool, then
    per-query assignment), and everything drift-specific (end pool, per-query
    endpoint choice) draws only from ``drift_rng`` (``[seed, 4]``).  A drift
    whose weight is identically zero therefore reproduces the drift-free
    multipliers bit-for-bit.
    """
    weights = np.asarray(weights, dtype=np.float64)
    num_queries = weights.size
    empty = np.empty(0, dtype=np.float64)
    if num_queries == 0:
        # Nothing to draw: leave both streams untouched, like sample().
        return empty, empty, empty, empty, 1.0, 1.0
    costs_a, hot_a, cold_a = start_model._raw_pool(cost_rng)
    start_mean = float(costs_a.mean())
    if start_mean <= 0:
        # Degenerate every-gather-free start pool: mirror the drift-free
        # degenerate path (all-ones multipliers, assignment never drawn)
        # without touching drift_rng.
        zeros = np.zeros(num_queries, dtype=np.float64)
        return np.ones(num_queries, dtype=np.float64), zeros, zeros, zeros, 1.0, 1.0
    assignment = cost_rng.integers(0, start_model.num_profiles, size=num_queries)
    # Normalising the start pool *then* indexing is elementwise-identical to
    # indexing then dividing, so weight-zero queries reproduce the drift-free
    # multipliers bit-for-bit.  The end pool normalises by the *start* mean:
    # a drift toward a costlier distribution raises the mean offered load a
    # stale plan sees, which is the whole point.
    norm_a = costs_a / start_mean
    totals_a = hot_a + cold_a
    costs_b, hot_b, cold_b = end_model._raw_pool(drift_rng)
    end_mean = float(costs_b.mean())
    norm_b = costs_b / start_mean
    totals_b = hot_b + cold_b
    use_end = drift_rng.random(num_queries) < weights
    multipliers = np.where(use_end, norm_b[assignment], norm_a[assignment])
    hot = np.where(use_end, hot_b[assignment], hot_a[assignment])
    cold = np.where(use_end, cold_b[assignment], cold_a[assignment])
    total = np.where(use_end, totals_b[assignment], totals_a[assignment])
    return multipliers, hot, cold, total, start_mean, end_mean


#: Registry of query-cost models by CLI-facing name.
COST_MODELS: dict[str, type[QueryCostModel]] = {
    model.name: model for model in (HomogeneousCostModel, SkewedCostModel)
}


def cost_model_names() -> list[str]:
    """Registered cost-model names, in registration order."""
    return list(COST_MODELS)


def resolve_cost_model_name(name: str) -> str:
    """Validate a cost-model name, raising :class:`ValueError` with the choices."""
    if name not in COST_MODELS:
        known = ", ".join(cost_model_names())
        raise ValueError(f"unknown cost model {name!r}; choose from {known}")
    return name


def make_cost_model(
    model: str | QueryCostModel, workload: DLRMConfig | None = None
) -> QueryCostModel:
    """Resolve a cost-model name against a workload (or pass an instance through).

    ``"homogeneous"`` needs no workload; ``"skewed"`` derives its access
    distribution and pooling factor from ``workload.embedding``.  To tune the
    skewed model's knobs, build :class:`SkewedCostModel` directly.
    """
    if isinstance(model, QueryCostModel):
        return model
    resolve_cost_model_name(model)
    if model == HomogeneousCostModel.name:
        return HomogeneousCostModel()
    if workload is None:
        raise ValueError("the skewed cost model needs a workload to derive its skew from")
    embedding = workload.embedding
    return SkewedCostModel(
        distribution=embedding.access_distribution(),
        pooling=embedding.pooling,
    )
