"""Property tests: the registry's statistics equal numpy's, bit for bit.

The control tick computes percentiles, sums and means over windows of a few
samples; the helpers it uses reproduce ``np.percentile`` (linear),
``np.sum`` and ``np.mean`` exactly, and the window scan reproduces
``bisect_right`` on the cutoff and on ``now``.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from repro.cluster.metrics import (
    MetricsRegistry,
    linear_percentile,
    pairwise_mean,
    pairwise_sum,
)

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_SETTINGS = dict(max_examples=300, deadline=None, derandomize=True)
_QS = (50, 90, 95, 99, 100)
#: Magnitudes 1e-3..1e3, drawn from a small pool as well, so windows hold ties.
_VALUE = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
_VALUES = st.lists(
    st.one_of(_VALUE, st.sampled_from((1e-3, 0.25, 1.0, 7.5, 1e3))), min_size=1, max_size=60
)


def _large(length: int, seed: int) -> list[float]:
    """``length`` values spanning 1e-3..1e3, a third of them rounded into ties."""
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-3.0, 3.0, length)
    values[::3] = np.round(values[::3], 1)
    return values.tolist()


class TestNumpyEquivalentStatistics:
    """The small-window helpers equal numpy's results bit for bit."""

    @given(values=_VALUES, q=st.sampled_from(_QS))
    @settings(**_SETTINGS)
    def test_linear_percentile_matches_numpy(self, values, q):
        expected = float(np.percentile(values, q))
        assert linear_percentile(values, q) == expected
        assert linear_percentile(np.array(values), q) == expected
        assert linear_percentile(values, float(q)) == expected

    @pytest.mark.parametrize("length", [1_000, 2_047, 5_000])
    @pytest.mark.parametrize("q", _QS)
    def test_linear_percentile_matches_numpy_on_thousands(self, length, q):
        values = _large(length, seed=length)
        expected = float(np.percentile(values, q))
        assert linear_percentile(values, q) == expected
        assert linear_percentile(np.array(values), q) == expected

    @given(values=st.lists(st.one_of(_VALUE, _VALUE.map(lambda v: -v)), max_size=300))
    @settings(**_SETTINGS)
    def test_pairwise_sum_and_mean_match_numpy(self, values):
        # Up to 300 values: the fold under 8, the eight accumulators up to
        # 128, and one recursive split above that.
        assert pairwise_sum(values) == float(np.sum(values))
        if values:
            assert pairwise_mean(values) == float(np.mean(values))

    @pytest.mark.parametrize("length", [129, 1_000, 4_099, 20_000])
    def test_pairwise_sum_matches_numpy_on_thousands(self, length):
        values = _large(length, seed=length)
        values[1::2] = [-v for v in values[1::2]]
        assert pairwise_sum(values) == float(np.sum(values))
        assert pairwise_mean(values) == float(np.mean(values))

    def test_signed_zero_and_empty(self):
        for values in ([], [-0.0], [-0.0, -0.0], [0.0, -0.0]):
            assert repr(pairwise_sum(values)) == repr(float(np.sum(values)))
        assert repr(pairwise_mean([-0.0])) == repr(float(np.mean([-0.0])))


def _reference_window(samples, now, window_s):
    """The window as ``bisect_right`` on the cutoff and on ``now`` finds it."""
    timestamps = [s.timestamp for s in samples]
    start = bisect.bisect_right(timestamps, now - window_s)
    end = bisect.bisect_right(timestamps, now)
    return samples[start:end]


class TestWindowScan:
    """``_window`` scans back from the newest sample to the bisect bounds."""

    @given(
        steps=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40),
        now=st.integers(min_value=-2, max_value=60),
        window=st.integers(min_value=1, max_value=30),
        prune=st.one_of(st.none(), st.integers(min_value=-2, max_value=60)),
    )
    @settings(**_SETTINGS)
    def test_scan_equals_bisect(self, steps, now, window, prune):
        # Quarter-second steps of 0..3 give repeated timestamps and samples
        # exactly at the cutoff and at ``now``.
        metrics = MetricsRegistry()
        clock = 0
        for index, step in enumerate(steps):
            clock += step
            metrics.record("m", float(index), timestamp=clock / 4)
        if prune is not None:
            metrics.prune(prune / 4)
            assert all(s.timestamp > prune / 4 for s in metrics.samples("m"))
        samples = metrics.samples("m")
        now_s, window_s = now / 4, window / 4
        assert metrics._window("m", now_s, window_s) == _reference_window(samples, now_s, window_s)

    def test_samples_at_the_cutoff_and_at_now(self):
        metrics = MetricsRegistry()
        for t in (0.0, 5.0, 5.0, 10.0, 15.0, 15.0, 20.0):
            metrics.record("m", t, timestamp=t)
        # (5, 15]: both samples at the cutoff 5 are out, both at now 15 in.
        assert [s.value for s in metrics._window("m", 15.0, 10.0)] == [10.0, 15.0, 15.0]
        metrics.prune(5.0)
        assert [s.timestamp for s in metrics.samples("m")] == [10.0, 15.0, 15.0, 20.0]
        assert [s.value for s in metrics._window("m", 15.0, 10.0)] == [10.0, 15.0, 15.0]
        assert metrics._window("m", 9.0, 4.0) == []
        assert metrics.count("m", now=20.0, window_s=5.0) == 1
