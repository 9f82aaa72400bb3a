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

:meth:`SkewedCostModel.sample_priced` is the one producer of a run's cost
columns: the multiplier, the hot/cold/total gather counts the embedding
cache prices from, and — when the SLO watchdog may arm quality fallback —
each query's degraded-to-full price ratio.  Every column is computed once
per profile and gathered through the per-query assignment.  Under
access-skew drift the same call also draws the end endpoint's pool and
each query's endpoint from a second generator, so a drift whose weight
stays zero reproduces the drift-free columns bit-for-bit.

Multipliers are normalised to mean 1.0 over the profile pool, so the
deployment's planned service time stays the mean service time for any skew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    "PricedQueries",
]


class PricedQueries(NamedTuple):
    """One run's per-query cost columns, float64, one row per arrival."""

    #: Service-cost multiplier (mean ~1.0 over the start pool).
    multipliers: np.ndarray
    #: Distinct hot-prefix gathers.
    hot: np.ndarray
    #: Distinct cold gathers.
    cold: np.ndarray
    #: ``hot + cold``.
    total: np.ndarray
    #: Degraded-to-full price ratio under quality fallback; ``None`` unless
    #: asked for.
    fallback: np.ndarray | None
    #: Mean cost of the start and end profile pools in cold-gather units
    #: (the multiplier normaliser and, at a re-plan cutover under drift,
    #: the renormaliser); both 1.0 for an empty or every-gather-free run.
    pool_means: tuple[float, float] = (1.0, 1.0)


class QueryCostModel:
    """Base class: pre-samples one service-cost multiplier per query."""

    #: Registry name of the model.
    name: str = ""

    @property
    def is_homogeneous(self) -> bool:
        """Whether every multiplier is exactly 1.0 (the compatibility mode)."""
        return False

    def sample(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``num_queries`` cost multipliers (float64, mean ~1.0)."""
        raise NotImplementedError


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

    def _profile_columns(
        self, multipliers: np.ndarray, hot: np.ndarray, cold: np.ndarray, fallback: bool
    ) -> list[np.ndarray]:
        """Per-profile cost columns: multiplier, hot, cold, total[, fallback ratio].

        The fallback ratio is the cache-hot-only share of a profile's priced
        work, ``f * hot / (f * hot + cold)`` with ``f = hot_cost_fraction``:
        under quality fallback a degraded gather serves only its hot rows.
        A profile with no hot work has nothing to degrade to and keeps its
        full price (ratio 1.0).  Elementwise float64 ``*``, ``+`` and ``/``
        round like Python floats, so ``multiplier * ratio`` is the price a
        per-query scalar computation would give, bit for bit.
        """
        columns = [multipliers, hot, cold, hot + cold]
        if fallback:
            hot_cost = self._hot_cost_fraction * hot
            ratio = np.ones_like(hot_cost)
            np.divide(hot_cost, hot_cost + cold, out=ratio, where=hot_cost > 0)
            columns.append(ratio)
        return columns

    def sample(self, num_queries: int, rng: np.random.Generator) -> np.ndarray:
        return self.sample_priced(num_queries, rng).multipliers

    def sample_priced(
        self,
        num_queries: int,
        rng: np.random.Generator,
        drift: tuple[SkewedCostModel, np.ndarray, np.random.Generator] | None = None,
        fallback: bool = False,
    ) -> PricedQueries:
        """Draw one run's per-query cost columns (see :class:`PricedQueries`).

        ``rng`` draws the profile pool and then each query's profile
        assignment.  Every column is computed once per *profile* and
        gathered through the assignment, so pre-pricing a run costs
        O(num_profiles) arithmetic plus one gather per column, and each
        total is the identical ``hot + cold`` IEEE-754 sum a per-query
        computation would give.  ``fallback`` adds the quality-fallback
        ratio column.

        ``drift`` is ``(end_model, weights, drift_rng)``: ``weights[i]`` is
        the drift weight at query ``i``'s arrival, the probability that its
        profile comes from ``end_model``'s pool instead of this model's.
        Everything drift-specific (the end pool, then each query's endpoint
        choice) draws only from ``drift_rng``, after ``rng`` is consumed
        exactly as a drift-free call consumes it, so a drift whose weight
        is identically zero reproduces the drift-free columns bit-for-bit.
        """
        if num_queries < 0:
            raise ValueError("num_queries must be non-negative")
        if num_queries == 0:
            # Nothing to draw: return before any RNG use so an idle tenant
            # leaves the shared cost stream untouched (matching the
            # homogeneous model's guarantee).
            empty = np.empty(0, dtype=np.float64)
            return PricedQueries(empty, empty, empty, empty, empty if fallback else None)
        costs, hot, cold = self._raw_pool(rng)
        mean = float(costs.mean())
        if mean <= 0:
            # Every gather free (hot_cost_fraction == 0 and an all-hot
            # table): flat multipliers, no assignment drawn, and the drift
            # stream is never touched.
            ones = np.ones(num_queries, dtype=np.float64)
            zeros = np.zeros(num_queries, dtype=np.float64)
            return PricedQueries(ones, zeros, zeros, zeros, ones if fallback else None)
        assignment = rng.integers(0, self._num_profiles, size=num_queries)
        # Normalising the pool *then* indexing is elementwise-identical to
        # indexing then dividing.
        columns = self._profile_columns(costs / mean, hot, cold, fallback)
        if drift is None:
            picked = [column[assignment] for column in columns]
            end_mean = mean
        else:
            end_model, weights, drift_rng = drift
            end_costs, end_hot, end_cold = end_model._raw_pool(drift_rng)
            end_mean = float(end_costs.mean())
            # The end pool normalises by the *start* mean: a drift toward a
            # costlier distribution raises the mean offered load a stale
            # plan sees, which is the whole point.
            end_columns = end_model._profile_columns(
                end_costs / mean, end_hot, end_cold, fallback
            )
            use_end = drift_rng.random(num_queries) < weights
            picked = [
                np.where(use_end, end_column[assignment], column[assignment])
                for column, end_column in zip(columns, end_columns)
            ]
        if not fallback:
            picked.append(None)
        return PricedQueries(*picked, pool_means=(mean, end_mean))


# ---------------------------------------------------------------------------
# Access-skew drift: spec grammar and endpoint models
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
