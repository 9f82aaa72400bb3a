"""Tests for the per-query cost models."""

from __future__ import annotations

import numpy as np
import pytest
from oracle import degraded_gather_multiplier

from repro.data.distributions import (
    DriftingDistribution,
    UniformDistribution,
    ZipfDistribution,
)
from repro.model.configs import microbenchmark, rm1, rm3
from repro.serving.spec import SpecError
from repro.serving.workload import (
    DriftSpec,
    HomogeneousCostModel,
    QueryCostModel,
    SkewedCostModel,
    cost_model_names,
    drift_endpoint_model,
    make_cost_model,
    make_drift_model,
    parse_drift_spec,
    resolve_cost_model_name,
)

ROWS = 100_000
POOLING = 64


def _skewed(locality: float, **kwargs) -> SkewedCostModel:
    return SkewedCostModel(
        ZipfDistribution.from_locality(ROWS, locality), POOLING, **kwargs
    )


class TestHomogeneous:
    def test_all_multipliers_exactly_one(self):
        out = HomogeneousCostModel().sample(1000, np.random.default_rng(0))
        assert out.shape == (1000,)
        assert np.all(out == 1.0)

    def test_never_touches_the_rng(self):
        rng = np.random.default_rng(42)
        HomogeneousCostModel().sample(1000, rng)
        # The next draw equals a fresh generator's first draw.
        assert rng.random() == np.random.default_rng(42).random()

    def test_is_homogeneous_flag(self):
        assert HomogeneousCostModel().is_homogeneous
        assert not _skewed(0.9).is_homogeneous

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            HomogeneousCostModel().sample(-1, np.random.default_rng(0))


class TestSkewed:
    def test_deterministic_for_same_seed(self):
        model = _skewed(0.9)
        first = model.sample(5000, np.random.default_rng(7))
        second = model.sample(5000, np.random.default_rng(7))
        assert first.tobytes() == second.tobytes()

    def test_multipliers_positive_with_mean_near_one(self):
        out = _skewed(0.9).sample(20_000, np.random.default_rng(0))
        assert np.all(out > 0)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_higher_locality_widens_the_spread(self):
        rng = np.random.default_rng(0)
        low = _skewed(0.10).sample(20_000, np.random.default_rng(0))
        high = _skewed(0.90).sample(20_000, rng)
        assert np.std(high) > 2.0 * np.std(low)

    def test_uniform_distribution_is_nearly_homogeneous(self):
        model = SkewedCostModel(
            UniformDistribution(ROWS), POOLING, pooling_spread=0.0
        )
        out = model.sample(10_000, np.random.default_rng(0))
        # No skew and no pooling spread: only coalescing noise remains.
        assert np.std(out) < 0.05

    def test_pooling_spread_defaults_to_locality(self):
        assert _skewed(0.9).pooling_spread == pytest.approx(0.9, abs=0.01)
        assert _skewed(0.9, pooling_spread=0.3).pooling_spread == 0.3

    def test_profile_gathers_bounded_by_pooling(self):
        model = _skewed(0.5, pooling_spread=0.0)
        gathers, _, _ = model._raw_pool(np.random.default_rng(0))
        assert gathers.shape == (2048,)
        assert np.all(gathers > 0)
        assert np.all(gathers <= POOLING)

    def test_empty_sample_never_touches_the_rng(self):
        # Regression: sampling zero queries must not perturb the stream, so
        # a zero-arrival run stays bit-exact with one that skips sampling.
        model = _skewed(0.9)
        rng = np.random.default_rng(42)
        out = model.sample(0, rng)
        assert out.shape == (0,)
        fresh = np.random.default_rng(42)
        assert model.sample(5000, rng).tobytes() == model.sample(5000, fresh).tobytes()

    def test_empty_sample_priced_never_touches_the_rng(self):
        model = _skewed(0.9)
        rng = np.random.default_rng(42)
        priced = model.sample_priced(0, rng, fallback=True)
        for column in priced[:5]:
            assert column.shape == (0,)
        assert rng.random() == np.random.default_rng(42).random()

    def test_priced_columns_share_one_profile_per_query(self):
        model = _skewed(0.9)
        priced = model.sample_priced(5000, np.random.default_rng(7))
        assert priced.fallback is None
        assert np.all(priced.hot >= 0) and np.all(priced.cold >= 0)
        assert np.all(priced.hot + priced.cold > 0)
        assert priced.total.tobytes() == (priced.hot + priced.cold).tobytes()
        assert priced.pool_means[0] == priced.pool_means[1] > 0
        fallback = model.sample_priced(5000, np.random.default_rng(7), fallback=True)
        for plain, column in zip(priced[:4], fallback[:4]):
            assert plain.tobytes() == column.tobytes()
    def test_gather_splits_sum_to_profile_gathers(self):
        model = _skewed(0.5, pooling_spread=0.0)
        hot, cold = model.profile_splits(np.random.default_rng(0))
        gathers, pool_hot, pool_cold = model._raw_pool(np.random.default_rng(0))
        assert pool_hot.tobytes() == hot.tobytes()
        assert pool_cold.tobytes() == cold.tobytes()
        np.testing.assert_allclose(
            cold + model.hot_cost_fraction * hot, gathers, rtol=1e-12
        )

    def test_invalid_parameters_rejected(self):
        dist = UniformDistribution(ROWS)
        with pytest.raises(ValueError):
            SkewedCostModel(dist, pooling=0)
        with pytest.raises(ValueError):
            SkewedCostModel(dist, POOLING, num_profiles=0)
        with pytest.raises(ValueError):
            SkewedCostModel(dist, POOLING, hot_fraction=0.0)
        with pytest.raises(ValueError):
            SkewedCostModel(dist, POOLING, hot_cost_fraction=1.5)
        with pytest.raises(ValueError):
            SkewedCostModel(dist, POOLING, pooling_spread=-0.1)


class TestPricedSampling:
    """``sample_priced`` is the one producer of a run's cost columns."""

    @pytest.mark.parametrize("workload,hot_free", [(rm1, False), (rm3, True)], ids=["RM1", "RM3"])
    def test_fallback_price_matches_the_scalar_reference(self, workload, hot_free):
        # Drifting RM3 (pooling 32) to locality 0.1 mixes in profiles with
        # no hot row.
        model = make_cost_model("skewed", workload())
        end_model = drift_endpoint_model(
            model, ZipfDistribution.from_locality(model.distribution.num_items, 0.1)
        )
        weights = np.linspace(0.0, 1.0, 20_000)
        priced = model.sample_priced(
            weights.size,
            np.random.default_rng(0),
            (end_model, weights, np.random.default_rng(1)),
            fallback=True,
        )
        assert np.any(priced.hot == 0) == hot_free
        degraded = priced.multipliers * priced.fallback
        reference = [
            degraded_gather_multiplier(m, h, c, model.hot_cost_fraction)
            for m, h, c in zip(
                priced.multipliers.tolist(), priced.hot.tolist(), priced.cold.tolist()
            )
        ]
        assert degraded.tolist() == reference
        assert np.all(degraded > 0)

    def test_homogeneous_share_comes_from_the_hot_split(self):
        model = _skewed(0.5)
        priced = model.sample_priced(5000, np.random.default_rng(3), fallback=True)
        hot_cost = model.hot_cost_fraction * priced.hot
        assert np.all((priced.fallback == 1.0) | (hot_cost > 0))
        assert np.all((priced.fallback > 0) & (priced.fallback <= 1.0))

    def test_zero_weight_drift_is_bit_exact_with_no_drift(self):
        model = _skewed(0.9)
        end_model = drift_endpoint_model(model, ZipfDistribution.from_locality(ROWS, 0.2))
        plain = model.sample_priced(5000, np.random.default_rng(7), fallback=True)
        drifting = model.sample_priced(
            5000,
            np.random.default_rng(7),
            (end_model, np.zeros(5000), np.random.default_rng(8)),
            fallback=True,
        )
        for column, drifted in zip(plain[:5], drifting[:5]):
            assert column.tobytes() == drifted.tobytes()
        assert drifting.pool_means[0] == plain.pool_means[0]
        assert drifting.pool_means[1] != plain.pool_means[1]

    def test_full_weight_drift_prices_from_the_end_pool(self):
        model = _skewed(0.9)
        end_model = drift_endpoint_model(model, ZipfDistribution.from_locality(ROWS, 0.2))
        start_mean = model.sample_priced(1, np.random.default_rng(7)).pool_means[0]
        costs, hot, cold = end_model._raw_pool(np.random.default_rng(8))
        drifting = model.sample_priced(
            5000,
            np.random.default_rng(7),
            (end_model, np.ones(5000), np.random.default_rng(8)),
        )
        assert drifting.pool_means == (start_mean, float(costs.mean()))
        profiles = set(zip((costs / start_mean).tolist(), hot.tolist(), cold.tolist()))
        rows = zip(
            drifting.multipliers.tolist(), drifting.hot.tolist(), drifting.cold.tolist()
        )
        assert set(rows) <= profiles


class TestRegistry:
    def test_names(self):
        assert cost_model_names() == ["homogeneous", "skewed"]

    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="homogeneous"):
            resolve_cost_model_name("zipfian")

    def test_make_homogeneous_without_workload(self):
        model = make_cost_model("homogeneous")
        assert isinstance(model, HomogeneousCostModel)

    def test_make_skewed_derives_from_workload(self):
        model = make_cost_model("skewed", microbenchmark(num_tables=2))
        assert isinstance(model, SkewedCostModel)
        assert model.pooling == microbenchmark(num_tables=2).embedding.pooling

    def test_make_skewed_requires_workload(self):
        with pytest.raises(ValueError, match="workload"):
            make_cost_model("skewed")

    def test_instance_passthrough(self):
        model = _skewed(0.5)
        assert make_cost_model(model) is model

    def test_base_class_sample_not_implemented(self):
        with pytest.raises(NotImplementedError):
            QueryCostModel().sample(1, np.random.default_rng(0))


class TestDriftSpecGrammar:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("linear@60+300:to=0.2", DriftSpec("linear", 60.0, 300.0, 0.2)),
            ("step@300:to=0.5,from=0.9", DriftSpec("step", 300.0, 0.0, 0.5, 0.9)),
            ("oscillate@0+600:to=0.3", DriftSpec("oscillate", 0.0, 600.0, 0.3)),
            (" Linear @ 60 + 300 : to = 0.2 ", DriftSpec("linear", 60.0, 300.0, 0.2)),
        ],
    )
    def test_round_trip(self, spec, expected):
        assert parse_drift_spec(spec) == expected

    @pytest.mark.parametrize(
        "spec,fragment",
        [
            ("", "empty spec"),
            ("linear", "missing '@<start time>'"),
            ("warp@10+60:to=0.1", "unknown drift schedule 'warp'"),
            ("linear@abc+60:to=0.1", "bad start time 'abc'"),
            ("linear@10+x:to=0.1", "bad duration 'x'"),
            ("linear@10+60", "missing required parameter to="),
            ("linear@10+60:to", "bad parameter 'to'"),
            ("linear@10+60:to=0.1,turbo=1", "unknown parameter 'turbo'"),
            ("step@10+60:to=0.1", "step takes no duration"),
            ("linear@10:to=0.1", "needs a positive duration"),
            ("linear@-1+60:to=0.1", "must be non-negative"),
            ("linear@10+60:to=2.0", "locality must be in (0, 1]"),
        ],
    )
    def test_malformed_rows_raise_one_line_errors(self, spec, fragment):
        with pytest.raises(SpecError) as excinfo:
            parse_drift_spec(spec)
        message = str(excinfo.value)
        assert message.startswith("malformed drift spec")
        assert fragment in message
        assert "\n" not in message

    def test_make_drift_model_resolution(self):
        for off in (None, "", "none"):
            assert make_drift_model(off) is None
        start = ZipfDistribution.from_locality(ROWS, 0.9)
        drift = make_drift_model("step@30:to=0.5", start)
        assert isinstance(drift, DriftingDistribution)
        assert drift.start is start
        assert make_drift_model(drift) is drift
        with pytest.raises(ValueError, match="needs a distribution"):
            make_drift_model("step@30:to=0.5")
