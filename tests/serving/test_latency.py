"""Edge-case tests for the latency bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.engine import _metric_series
from repro.serving.latency import LatencyTracker


class TestEmptyTracker:
    def test_no_samples(self):
        tracker = LatencyTracker()
        assert tracker.num_samples == 0
        assert tracker.completion_times.size == 0
        assert tracker.latencies_s.size == 0

    def test_percentile_and_mean_raise(self):
        tracker = LatencyTracker()
        with pytest.raises(ValueError, match="no latency samples"):
            tracker.percentile(95.0)
        with pytest.raises(ValueError, match="no latency samples"):
            tracker.mean()

    def test_sla_violation_fraction_is_zero(self):
        assert LatencyTracker().sla_violation_fraction(0.4) == 0.0


class TestSingleSample:
    def test_every_percentile_is_the_sample(self):
        tracker = LatencyTracker()
        tracker.record(completion_time=10.0, latency_s=0.25)
        for percentile in (0.1, 50.0, 95.0, 99.0, 100.0):
            assert tracker.percentile(percentile) == pytest.approx(0.25)
        assert tracker.mean() == pytest.approx(0.25)

    def test_sla_boundary_is_not_a_violation(self):
        tracker = LatencyTracker()
        tracker.record(completion_time=1.0, latency_s=0.4)
        # Strictly-greater comparison: exactly at the SLA is compliant.
        assert tracker.sla_violation_fraction(0.4) == 0.0
        assert tracker.sla_violation_fraction(0.39999) == 1.0


class TestRecordedSamples:
    def test_percentiles_and_mean(self):
        tracker = LatencyTracker()
        for value in np.linspace(0.01, 1.0, 100):
            tracker.record(completion_time=float(value * 10), latency_s=float(value))
        assert tracker.num_samples == 100
        assert tracker.mean() == pytest.approx(0.505, rel=0.01)
        assert tracker.percentile(50) == pytest.approx(0.505, rel=0.05)
        assert tracker.percentile(95) > tracker.percentile(50)

    def test_sla_violation_fraction(self):
        tracker = LatencyTracker()
        for latency in (0.1, 0.2, 0.5, 0.6):
            tracker.record(0.0, latency)
        assert tracker.sla_violation_fraction(0.4) == pytest.approx(0.5)

    def test_record_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencyTracker().record(1.0, -0.1)

    def test_sla_fraction_rejects_a_non_positive_sla(self):
        tracker = LatencyTracker()
        tracker.record(1.0, 0.2)
        with pytest.raises(ValueError):
            tracker.sla_violation_fraction(0.0)

    def test_completion_arrays_preserve_insertion_order(self):
        tracker = LatencyTracker()
        tracker.record(5.0, 0.2)
        tracker.record(3.0, 0.1)
        assert np.array_equal(tracker.completion_times, np.array([5.0, 3.0]))
        assert np.array_equal(tracker.latencies_s, np.array([0.2, 0.1]))


class TestMetricSeries:
    """The engine's per-sample achieved-QPS and rolling-p95 series.

    Achieved QPS counts completions in ``[t - interval, t)``; the p95 reads
    the latencies completed in ``(t - window, t]``, ``window`` being the
    interval but at least 30 s.
    """

    @staticmethod
    def _series(samples, sample_times, interval_s):
        tracker = LatencyTracker()
        for completion, latency in samples:
            tracker.record(completion, latency)
        return _metric_series(tracker, np.asarray(sample_times, dtype=float), interval_s)

    def test_empty_tracker_reads_zero(self):
        qps, p95 = self._series([], [60.0, 120.0], 60.0)
        assert qps.tolist() == [0.0, 0.0]
        assert p95.tolist() == [0.0, 0.0]

    def test_single_sample(self):
        qps, p95 = self._series([(30.0, 0.1)], [15.0, 30.0, 45.0, 60.0, 75.0], 15.0)
        assert qps.tolist() == pytest.approx([0.0, 0.0, 1 / 15, 0.0, 0.0])
        assert p95.tolist() == pytest.approx([0.0, 100.0, 100.0, 0.0, 0.0])

    def test_qps_window_includes_its_start_and_excludes_its_end(self):
        # At t=0, exactly on the edge t=60, and at the last sample time t=120.
        samples = [(0.0, 0.05), (60.0, 0.2), (120.0, 0.05)]
        qps, _ = self._series(samples, [60.0, 120.0], 60.0)
        assert qps.tolist() == pytest.approx([1 / 60, 1 / 60])

    def test_p95_window_excludes_its_start_and_includes_its_end(self):
        _, p95 = self._series([(60.0, 0.2)], [60.0, 90.0, 120.0], 60.0)
        assert p95.tolist() == pytest.approx([200.0, 200.0, 0.0])

    def test_p95_window_is_at_least_30_seconds(self):
        qps, p95 = self._series([(5.0, 0.3)], [10.0, 20.0, 30.0, 40.0], 10.0)
        assert qps.tolist() == pytest.approx([0.1, 0.0, 0.0, 0.0])
        assert p95.tolist() == pytest.approx([300.0, 300.0, 300.0, 0.0])

    @pytest.mark.parametrize("interval_s", [10.0, 15.0, 60.0])
    def test_matches_per_window_masks(self, interval_s):
        rng = np.random.default_rng(int(interval_s))
        # Whole-second completions put many samples exactly on window edges.
        completions = rng.integers(0, 300, 2_000).astype(float)
        latencies = rng.uniform(0.0, 1.0, completions.size)
        sample_times = np.arange(interval_s, 300.0 + interval_s, interval_s)
        qps, p95 = self._series(zip(completions, latencies), sample_times, interval_s)
        window = max(interval_s, 30.0)
        for index, end in enumerate(sample_times):
            counted = (completions >= end - interval_s) & (completions < end)
            assert qps[index] == counted.sum() / interval_s
            in_window = (completions > end - window) & (completions <= end)
            if in_window.any():
                expected = np.percentile(latencies[in_window] * 1000.0, 95)
                assert p95[index] == pytest.approx(expected)
            else:
                assert p95[index] == 0.0


class TestExtend:
    """``extend`` is n ``record`` calls in one go, byte for byte."""

    @staticmethod
    def _pair(recorded: LatencyTracker, extended: LatencyTracker, times, lats) -> None:
        for completion, latency in zip(times.tolist(), lats.tolist()):
            recorded.record(completion, latency)
        extended.extend(times, lats)

    @staticmethod
    def _assert_identical(a: LatencyTracker, b: LatencyTracker) -> None:
        assert (a.num_samples, a.live_samples, a.capacity) == (
            b.num_samples,
            b.live_samples,
            b.capacity,
        )
        assert a.completion_times.tobytes() == b.completion_times.tobytes()
        assert a.latencies_s.tobytes() == b.latencies_s.tobytes()

    def test_extend_matches_record_across_growth_and_spill(self):
        rng = np.random.default_rng(3)
        times = rng.uniform(0.0, 100.0, 3_200)
        lats = rng.uniform(0.0, 1.0, 3_200)
        recorded, extended = LatencyTracker(), LatencyTracker()
        # 1,300 samples from empty cross two doublings (512 -> 2,048).
        self._pair(recorded, extended, times[:1_300], lats[:1_300])
        self._assert_identical(recorded, extended)
        spilled = {"record": [], "extend": []}
        recorded.spill(1_000, lambda *chunk: spilled["record"].append(chunk))
        extended.spill(1_000, lambda *chunk: spilled["extend"].append(chunk))
        # After the spill, 1,900 more samples overflow the compacted buffer
        # (300 live + 1,900 > 2,048 -> 4,096).
        self._pair(recorded, extended, times[1_300:], lats[1_300:])
        assert recorded.spilled_samples == extended.spilled_samples == 1_000
        [(t_a, l_a)], [(t_b, l_b)] = spilled["record"], spilled["extend"]
        assert t_a.tobytes() == t_b.tobytes() and l_a.tobytes() == l_b.tobytes()
        assert recorded.capacity == extended.capacity == 4_096
        assert recorded.sample(3_199) == extended.sample(3_199)
        assert recorded._times[: recorded.live_samples].tobytes() == (
            extended._times[: extended.live_samples].tobytes()
        )
        assert recorded._lats[: recorded.live_samples].tobytes() == (
            extended._lats[: extended.live_samples].tobytes()
        )

    def test_extend_without_a_spill_matches_record(self):
        rng = np.random.default_rng(4)
        recorded, extended = LatencyTracker(), LatencyTracker()
        for size in (3, 509, 1, 600):
            self._pair(
                recorded, extended, rng.uniform(0, 9, size), rng.uniform(0, 1, size)
            )
            self._assert_identical(recorded, extended)

    def test_extend_rejects_a_negative_latency(self):
        tracker = LatencyTracker()
        with pytest.raises(ValueError, match="latency_s must be non-negative"):
            tracker.extend(np.array([1.0, 2.0]), np.array([0.1, -0.1]))
        assert tracker.num_samples == 0


# ----------------------------------------------------------------------
# Tracker-level equivalence (Hypothesis)
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class _ReferenceTracker:
    """The pre-PR5 list-based LatencyTracker, kept verbatim as the oracle."""

    def __init__(self) -> None:
        self._completion_times: list[float] = []
        self._latencies: list[float] = []

    def record(self, completion_time: float, latency_s: float) -> None:
        if latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        self._completion_times.append(completion_time)
        self._latencies.append(latency_s)

    def sample(self, index: int) -> tuple[float, float]:
        return self._completion_times[index], self._latencies[index]

    def update(self, index: int, completion_time: float, latency_s: float) -> None:
        self._completion_times[index] = completion_time
        self._latencies[index] = latency_s

    @property
    def completion_times(self) -> np.ndarray:
        return np.asarray(self._completion_times, dtype=np.float64)

    @property
    def latencies_s(self) -> np.ndarray:
        return np.asarray(self._latencies, dtype=np.float64)

    def percentile(self, percentile: float) -> float:
        return float(np.percentile(self._latencies, percentile))

    def mean(self) -> float:
        return float(np.mean(self._latencies))

    def sla_violation_fraction(self, sla_s: float) -> float:
        if not self._latencies:
            return 0.0
        return float(np.mean(np.asarray(self._latencies) > sla_s))

    def count_exceeding(self, threshold_s: float) -> int:
        return int(np.sum(np.asarray(self._latencies) > threshold_s))


_SAMPLES = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)

# Requeue-style rewrites: (victim index fraction, completion delta, latency).
_REWRITES = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    ),
    max_size=50,
)

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestTrackerEquivalence:
    @given(samples=_SAMPLES, rewrites=_REWRITES, sla=st.floats(min_value=0.01, max_value=30.0))
    @settings(**_SETTINGS)
    def test_buffered_tracker_matches_the_list_reference(self, samples, rewrites, sla):
        tracker = LatencyTracker()
        reference = _ReferenceTracker()
        for completion, latency in samples:
            tracker.record(completion, latency)
            reference.record(completion, latency)
        # Interleave in-place rewrites the way fault requeues/drops do:
        # read the sample, then overwrite it with a later completion.
        for fraction, delta, latency in rewrites:
            index = int(fraction * tracker.num_samples)
            assert tracker.sample(index) == tuple(
                map(float, reference.sample(index))
            )
            old_completion, _ = tracker.sample(index)
            tracker.update(index, old_completion + delta, latency)
            reference.update(index, old_completion + delta, latency)

        assert tracker.num_samples == len(samples)
        assert np.array_equal(tracker.completion_times, reference.completion_times)
        assert np.array_equal(tracker.latencies_s, reference.latencies_s)
        assert tracker.percentile(95.0) == reference.percentile(95.0)
        assert tracker.percentile(50.0) == reference.percentile(50.0)
        assert tracker.mean() == reference.mean()
        assert tracker.sla_violation_fraction(sla) == reference.sla_violation_fraction(sla)
        assert tracker.count_exceeding(sla) == reference.count_exceeding(sla)
        # The shared-sort view must equal an independent stable argsort.
        order = tracker.completion_order()
        assert np.array_equal(
            order, np.argsort(reference.completion_times, kind="stable")
        )
        assert np.array_equal(
            tracker.completion_times[order], np.sort(reference.completion_times)
        )

    @given(samples=_SAMPLES)
    @settings(**_SETTINGS)
    def test_amortized_growth_invariants(self, samples):
        tracker = LatencyTracker()
        capacities = set()
        for index, (completion, latency) in enumerate(samples):
            tracker.record(completion, latency)
            assert tracker.num_samples == index + 1
            assert tracker.capacity >= tracker.num_samples
            capacities.add(tracker.capacity)
        # Doubling growth: every observed capacity is the initial one times a
        # power of two, and at most O(log n) distinct capacities appear.
        smallest = min(capacities)
        for capacity in capacities:
            ratio = capacity / smallest
            assert ratio == int(ratio) and int(ratio) & (int(ratio) - 1) == 0
        assert len(capacities) <= int(np.log2(max(len(samples), 1))) + 2
        # Snapshots are stable copies: growing or rewriting the buffer must
        # not mutate a previously taken view.
        snapshot = tracker.completion_times
        tracker.record(1.0, 1.0)
        tracker.update(0, 2.0, 2.0)
        assert np.array_equal(snapshot, np.asarray([s[0] for s in samples]))

    def test_update_out_of_range_raises(self):
        tracker = LatencyTracker()
        tracker.record(1.0, 0.1)
        with pytest.raises(IndexError):
            tracker.update(1, 1.0, 0.1)
        with pytest.raises(IndexError):
            tracker.sample(-1)
        with pytest.raises(ValueError):
            tracker.update(0, 1.0, -0.5)
