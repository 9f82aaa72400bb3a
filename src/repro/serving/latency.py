"""Latency bookkeeping: samples, percentiles and SLA-violation counts.

:class:`LatencyTracker` is on the serving engine's per-query hot path, so it
stores samples in pre-allocated numpy buffers with amortized doubling growth
instead of Python lists: a ``record`` is two array stores and an integer
bump (an ``extend`` is two slice stores), and the aggregate views
(``completion_times``, ``latencies_s``) are buffer slices rather than
list-to-array conversions.

Two sort caches keep the post-run aggregations cheap:

* :meth:`completion_order` — one stable argsort of the completion times,
  shared by every windowed series the engine derives (achieved QPS and the
  rolling p95 both consume it, so the run pays for a single sort);
* a sorted copy of the latencies backing :meth:`count_exceeding`, so SLA
  violation counts are one binary search instead of a full boolean scan.

Both caches are versioned: any :meth:`record`, :meth:`extend` or
:meth:`update` (fault handling rewrites samples in place when a replica
dies mid-flight) invalidates them, so a stale sort can never leak into a
result.

For memory-bounded streamed runs the tracker can *spill*: :meth:`spill`
hands a settled prefix of the buffers to a sink (the on-disk spool) and
compacts the live buffer, so resident memory stays bounded by the spill
threshold instead of the run length.  Indices stay **absolute**: a sample
keeps the index it was recorded under for its whole life, so the fault
machinery's requeue rewrites (:meth:`update`) keep working across spills —
the engine only ever spills below the oldest still-in-flight sample, and a
spilled index raises :class:`IndexError` rather than silently aliasing.
Whole-run aggregates (percentiles, sorts) are unavailable on a spilled
tracker — the merge step recomputes them from the spool, where the full
arrays live.

The numbers produced are bit-for-bit identical to the historical list-based
implementation: the buffers hold the same float64 values the lists did, and
every aggregate runs the same numpy computation over them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LatencyTracker"]

#: Initial per-buffer capacity; doubles whenever the buffer fills.
_INITIAL_CAPACITY = 512


class LatencyTracker:
    """Collects (completion time, latency) samples and aggregates them."""

    __slots__ = (
        "_times",
        "_lats",
        "_size",
        "_spilled",
        "_version",
        "_order",
        "_order_version",
        "_sorted_lats",
        "_sorted_lats_version",
    )

    def __init__(self) -> None:
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._lats = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._size = 0
        self._spilled = 0
        self._version = 0
        self._order: np.ndarray | None = None
        self._order_version = -1
        self._sorted_lats: np.ndarray | None = None
        self._sorted_lats_version = -1

    @classmethod
    def from_arrays(cls, completion_times, latencies_s) -> "LatencyTracker":
        """Bulk-load a tracker from recorded arrays (the spool merge path).

        The arrays are copied into fresh buffers, so the tracker behaves
        exactly as if every sample had been :meth:`record`-ed in order.
        """
        times = np.ascontiguousarray(completion_times, dtype=np.float64)
        lats = np.ascontiguousarray(latencies_s, dtype=np.float64)
        if times.shape != lats.shape or times.ndim != 1:
            raise ValueError("completion_times and latencies_s must be equal-length 1-D")
        if lats.size and float(lats.min()) < 0:
            raise ValueError("latency_s must be non-negative")
        tracker = cls()
        capacity = max(_INITIAL_CAPACITY, int(times.size))
        tracker._times = np.empty(capacity, dtype=np.float64)
        tracker._lats = np.empty(capacity, dtype=np.float64)
        tracker._times[: times.size] = times
        tracker._lats[: lats.size] = lats
        tracker._size = int(times.size)
        tracker._version = 1
        return tracker

    def _grow(self) -> None:
        capacity = self._times.size * 2
        times = np.empty(capacity, dtype=np.float64)
        lats = np.empty(capacity, dtype=np.float64)
        times[: self._size] = self._times[: self._size]
        lats[: self._size] = self._lats[: self._size]
        self._times = times
        self._lats = lats

    @property
    def capacity(self) -> int:
        """Allocated buffer slots (always at least :attr:`num_samples`)."""
        return int(self._times.size)

    def record(self, completion_time: float, latency_s: float) -> None:
        """Record one completed query."""
        if latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        size = self._size
        if size == self._times.size:
            self._grow()
        self._times[size] = completion_time
        self._lats[size] = latency_s
        self._size = size + 1
        self._version += 1

    def extend(self, completion_times: np.ndarray, latencies_s: np.ndarray) -> None:
        """Record a run of completed queries in order (n :meth:`record` calls)."""
        count = int(latencies_s.size)
        if (latencies_s < 0).any():
            raise ValueError("latency_s must be non-negative")
        size = self._size
        while size + count > self._times.size:
            self._grow()
        self._times[size : size + count] = completion_times
        self._lats[size : size + count] = latencies_s
        self._size = size + count
        self._version += 1

    def _buffer_index(self, index: int) -> int:
        """Translate an absolute sample index into the live buffer."""
        offset = index - self._spilled
        if offset < 0:
            raise IndexError(
                f"sample {index} was spilled to the spool (spilled up to "
                f"{self._spilled}); only live samples can be read or rewritten"
            )
        if offset >= self._size:
            raise IndexError(f"no sample at index {index}")
        return offset

    def sample(self, index: int) -> tuple[float, float]:
        """The ``(completion_time, latency_s)`` pair of one recorded query."""
        offset = self._buffer_index(index)
        return float(self._times[offset]), float(self._lats[offset])

    def update(self, index: int, completion_time: float, latency_s: float) -> None:
        """Rewrite one recorded query in place.

        Fault handling uses this to re-price queries whose replica died
        mid-flight: a re-queued query completes later than first recorded,
        and a dropped one is charged the rejection penalty.
        """
        if latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        offset = self._buffer_index(index)
        self._times[offset] = completion_time
        self._lats[offset] = latency_s
        self._version += 1

    # ------------------------------------------------------------------
    # Spilling (memory-bounded streamed runs)
    # ------------------------------------------------------------------
    @property
    def spilled_samples(self) -> int:
        """Samples already handed to the spill sink (no longer resident)."""
        return self._spilled

    @property
    def live_samples(self) -> int:
        """Samples still resident in the buffers."""
        return self._size

    def spill(self, up_to: int, sink) -> int:
        """Flush samples ``[spilled_samples, up_to)`` to ``sink`` and compact.

        ``sink(completion_times, latencies_s)`` receives fresh copies of the
        flushed slice.  ``up_to`` is an absolute index; the engine passes the
        oldest still-in-flight sample, so every flushed sample is settled —
        no future :meth:`update` can target it.  Returns the number of
        samples flushed (0 when ``up_to`` is already spilled).
        """
        if up_to > self.num_samples:
            raise IndexError(f"cannot spill to {up_to}: only {self.num_samples} recorded")
        count = up_to - self._spilled
        if count <= 0:
            return 0
        sink(self._times[:count].copy(), self._lats[:count].copy())
        remaining = self._size - count
        # Compact in place: the live tail moves to the front of the buffer.
        self._times[:remaining] = self._times[count : self._size]
        self._lats[:remaining] = self._lats[count : self._size]
        self._size = remaining
        self._spilled = up_to
        self._version += 1
        return count

    def _require_unspilled(self, what: str) -> None:
        if self._spilled:
            raise ValueError(
                f"{what} needs every sample, but {self._spilled} were spilled "
                "to the spool; recompute from the merged spool instead"
            )

    @property
    def num_samples(self) -> int:
        """Number of recorded completions (spilled samples included)."""
        return self._spilled + self._size

    @property
    def completion_times(self) -> np.ndarray:
        """Completion timestamps of every recorded query (a fresh copy)."""
        self._require_unspilled("completion_times")
        return self._times[: self._size].copy()

    @property
    def latencies_s(self) -> np.ndarray:
        """Latencies (seconds) of every recorded query (a fresh copy)."""
        self._require_unspilled("latencies_s")
        return self._lats[: self._size].copy()

    def completion_order(self) -> np.ndarray:
        """Stable argsort of the completion times, cached until the next write.

        The engine's series assembly sorts the completion times once through
        this method and shares the order between the achieved-QPS and rolling
        p95 series instead of re-sorting per series.
        """
        self._require_unspilled("completion_order")
        if self._order_version != self._version:
            self._order = np.argsort(self._times[: self._size], kind="stable")
            self._order_version = self._version
        return self._order

    def _latencies_sorted(self) -> np.ndarray:
        self._require_unspilled("latency aggregation")
        if self._sorted_lats_version != self._version:
            self._sorted_lats = np.sort(self._lats[: self._size])
            self._sorted_lats_version = self._version
        return self._sorted_lats

    def count_exceeding(self, threshold_s: float) -> int:
        """Number of recorded latencies strictly above ``threshold_s``.

        One binary search over the cached sorted latencies — identical to
        ``np.sum(latencies_s > threshold_s)`` but O(log n) per call once the
        sort is cached.
        """
        sorted_lats = self._latencies_sorted()
        return int(self._size - np.searchsorted(sorted_lats, threshold_s, side="right"))

    def percentile(self, percentile: float) -> float:
        """Overall latency percentile in seconds."""
        if not self._size:
            raise ValueError("no latency samples recorded")
        return float(np.percentile(self._latencies_sorted(), percentile))

    def mean(self) -> float:
        """Overall mean latency in seconds."""
        self._require_unspilled("mean")
        if not self._size:
            raise ValueError("no latency samples recorded")
        return float(np.mean(self._lats[: self._size]))

    def sla_violation_fraction(self, sla_s: float) -> float:
        """Fraction of completions whose latency exceeded the SLA."""
        if sla_s <= 0:
            raise ValueError("sla_s must be positive")
        if not self._size:
            return 0.0
        return self.count_exceeding(sla_s) / self._size
