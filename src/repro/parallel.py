"""Shared multiprocessing and deterministic-seeding helpers.

Every parallel entry point of the package — the sweep runner
(``python -m repro sweep``) and the sharded run executor
(``python -m repro simulate --shard-workers``) — needs the same two pieces
of machinery:

* a :func:`pool_context` that prefers ``fork`` (workers share the already
  imported package and any plans built before the fork) and falls back to
  ``spawn`` on platforms without ``fork`` (workers then re-import
  ``repro``);
* :class:`numpy.random.SeedSequence` fan-out (:func:`subseed` /
  :func:`spawn_seeds`), so derived seeds depend only on ``(base seed,
  index)`` — never on worker count or scheduling order, which is what makes
  "serial == parallel" a checkable contract instead of a hope.

Keeping them here (rather than private to ``experiments.sweeps``) means one
fix — e.g. a platform losing ``fork`` — lands everywhere at once.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.context
import resource
import sys

import numpy as np

__all__ = [
    "pool_context",
    "subseed",
    "spawn_seeds",
    "partition_indices",
    "peak_rss_mb",
]


def pool_context() -> multiprocessing.context.BaseContext:
    """The process-pool context every parallel runner shares.

    ``fork`` shares the already-imported package (and anything the parent
    built before forking) with the workers; ``spawn`` is the fallback where
    fork is unavailable, at the cost of a re-import per worker.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set size, in MB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.  It is a
    high-water mark (and inherited across ``fork``), so per-workload numbers
    need a fresh child process per measurement — which is exactly how the
    sharded executor and the benchmark harness call this: once, at the end
    of each worker.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1e6 if sys.platform == "darwin" else peak / 1024.0


def subseed(base_seed: int, index: int) -> int:
    """Deterministic derived seed, independent of worker count and order."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def spawn_seeds(base_seed: int, count: int) -> list[int]:
    """``count`` derived seeds via :func:`subseed` (one per child index)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if base_seed < 0:
        raise ValueError("seed must be non-negative")
    return [subseed(base_seed, index) for index in range(count)]


def partition_indices(count: int, parts: int) -> list[list[int]]:
    """Contiguous near-even partition of ``range(count)`` into ``parts`` slices.

    ``parts`` is clamped to ``count`` so no slice is empty; the first
    ``count % parts`` slices are one element longer (the ``np.array_split``
    convention).  The partition depends only on the two counts, so a sharded
    run assigns the same items to the same shard on every host.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if parts < 1:
        raise ValueError("parts must be at least 1")
    parts = min(parts, count)
    base, extra = divmod(count, parts)
    slices = []
    start = 0
    for part in range(parts):
        size = base + (1 if part < extra else 0)
        slices.append(list(range(start, start + size)))
        start += size
    return slices
