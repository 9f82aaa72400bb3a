"""A minimal Prometheus-like metric registry.

The paper uses a Prometheus metrics server to collect CPU usage, memory
consumption, tail latency and QPS (Section V-B).  The registry here stores
timestamped samples per metric name and supports the windowed aggregations
the autoscaler and the experiments need: rates, means and percentiles over a
trailing window.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["MetricSample", "MetricsRegistry", "linear_percentile", "pairwise_mean", "pairwise_sum"]


def _pairwise(values: Sequence[float], start: int, count: int) -> float:
    """numpy's ``pairwise_sum`` over ``values[start:start + count]``.

    Under 8 values a left fold from ``-0.0``; up to 128, eight strided
    accumulators added as a tree, then the remainder; above that, split at
    half rounded down to a multiple of 8 and recurse.
    """
    if count < 8:
        total = -0.0
        for index in range(start, start + count):
            total += values[index]
        return total
    if count <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start : start + 8]
        end = start + count - count % 8
        for i in range(start + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for index in range(end, start + count):
            total += values[index]
        return total
    half = count // 2
    half -= half % 8
    return _pairwise(values, start, half) + _pairwise(values, start + half, count - half)


def pairwise_sum(values: Sequence[float]) -> float:
    """``float(np.sum(values))`` for a list of floats, bit for bit, without an array.

    numpy adds a contiguous float64 array pairwise, not left to right, onto
    the reduction's identity ``0.0``; the order is reproduced, not just the
    value approximated.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def pairwise_mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` for a non-empty list of floats, bit for bit."""
    return pairwise_sum(values) / len(values)


def linear_percentile(values: Sequence[float], q: float) -> float:
    """``float(np.percentile(values, q))`` (``method="linear"``), bit for bit.

    ``values`` is a non-empty list or 1-D array of floats.  numpy
    partitions around the two order statistics that bracket the virtual
    index ``(n - 1) * q / 100`` and interpolates between them with
    ``_lerp``; this does the same, minus the per-call overhead of
    ``np.percentile`` that dominates on small windows.
    """
    last = len(values) - 1
    virtual = last * (q / 100)
    if virtual >= last:
        return float(np.max(values))
    below = math.floor(virtual)
    ordered = np.partition(values, (below, below + 1))
    low = ordered.item(below)
    high = ordered.item(below + 1)
    weight = virtual - below
    step = high - low
    # _lerp interpolates from the nearer end.
    if weight >= 0.5:
        return high - step * (1 - weight)
    return low + step * weight


@dataclass(frozen=True)
class MetricSample:
    """One observation of a metric."""

    timestamp: float
    value: float


class MetricsRegistry:
    """Stores samples per metric name; query helpers operate on trailing windows."""

    def __init__(self) -> None:
        self._samples: dict[str, list[MetricSample]] = {}

    def record(self, name: str, value: float, timestamp: float) -> None:
        """Append one sample (timestamps must be non-decreasing per metric)."""
        samples = self._samples.setdefault(name, [])
        if samples and timestamp < samples[-1].timestamp:
            raise ValueError(
                f"samples for {name!r} must be recorded in time order "
                f"({timestamp} < {samples[-1].timestamp})"
            )
        samples.append(MetricSample(timestamp=timestamp, value=value))

    def prune(self, before: float) -> None:
        """Drop samples with ``timestamp <= before`` from every metric.

        Every query helper reads a trailing window, so pruning behind the
        oldest window any consumer will ever ask for changes no answer.  The
        serving engine calls this on streamed (memory-bounded) runs, where
        per-interval metric history would otherwise grow with the horizon.
        """
        for samples in self._samples.values():
            cut = 0
            while cut < len(samples) and samples[cut].timestamp <= before:
                cut += 1
            if cut:
                del samples[:cut]

    def names(self) -> list[str]:
        """All metric names with at least one sample."""
        return sorted(self._samples)

    def samples(self, name: str) -> list[MetricSample]:
        """All samples of one metric (empty list if unknown)."""
        return list(self._samples.get(name, []))

    def _window(self, name: str, now: float, window_s: float) -> list[MetricSample]:
        """Samples in the half-open trailing window ``(now - window_s, now]``.

        Timestamps are non-decreasing, so scanning back from the newest
        sample finds the same bounds ``bisect_right`` would on the cutoff
        and on ``now``, in time proportional to the window, not the history.
        """
        samples = self._samples.get(name)
        if not samples:
            return []
        cutoff = now - window_s
        end = len(samples)
        while end and samples[end - 1].timestamp > now:
            end -= 1
        start = end
        while start and samples[start - 1].timestamp > cutoff:
            start -= 1
        return samples[start:end]

    def count(self, name: str, now: float, window_s: float) -> int:
        """Number of samples in the trailing window."""
        return len(self._window(name, now, window_s))

    def rate(self, name: str, now: float, window_s: float) -> float:
        """Samples per second over the trailing window (event-counting metrics)."""
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        return self.count(name, now, window_s) / window_s

    def mean(self, name: str, now: float, window_s: float) -> float | None:
        """Average sample value over the trailing window."""
        window = self._window(name, now, window_s)
        if not window:
            return None
        return pairwise_mean([s.value for s in window])

    def sum(self, name: str, now: float, window_s: float) -> float:
        """Sum of sample values over the trailing window."""
        return pairwise_sum([s.value for s in self._window(name, now, window_s)])

    def percentile(
        self, name: str, percentile: float, now: float, window_s: float
    ) -> float | None:
        """Percentile of sample values over the trailing window."""
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        window = self._window(name, now, window_s)
        if not window:
            return None
        return linear_percentile([s.value for s in window], percentile)

    def latest(self, name: str) -> float | None:
        """Most recent sample value."""
        samples = self._samples.get(name)
        return samples[-1].value if samples else None
