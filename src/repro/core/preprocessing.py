"""Embedding-table preprocessing: hotness sorting and access CDF construction.

Section IV-B (Figure 8): before partitioning, ElasticRec sorts each embedding
table by access frequency so that a shard of consecutive index IDs contains
vectors of similar hotness.  The access frequency is obtained from a history
of per-embedding access counts kept by production inference servers; here it
comes either from observed counts (a trace) or from a synthetic access
distribution.  The sort is a one-time, off-critical-path operation (the paper
reports roughly three seconds for a 20M-row table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.distributions import AccessDistribution, EmpiricalDistribution
from repro.model.embedding import EmbeddingTableSpec

__all__ = ["sort_by_hotness", "SortedTable", "preprocess_table"]


def sort_by_hotness(access_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort per-row access counts descending.

    Returns ``(permutation, sorted_counts)`` where ``permutation[new_rank]``
    is the original row id now stored at ``new_rank`` (rank 0 = hottest).  The
    sort is stable so ties keep their original relative order, which makes the
    preprocessing deterministic.
    """
    counts = np.asarray(access_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("access_counts must be a non-empty 1-D array")
    if np.any(counts < 0):
        raise ValueError("access_counts must be non-negative")
    permutation = np.argsort(-counts, kind="stable")
    return permutation, counts[permutation]


@dataclass(frozen=True)
class SortedTable:
    """A hotness-sorted embedding table ready for partitioning.

    Attributes
    ----------
    spec:
        Size/shape metadata of the table.
    distribution:
        Access distribution over the *sorted* ranks (rank 0 is hottest).
    pooling:
        Average number of vectors gathered from this table per ranked item
        (Algorithm 1's ``n_t``).
    permutation:
        Optional mapping from sorted rank to original row id.  ``None`` when
        the table was already described by a hot-sorted synthetic
        distribution (the common case for paper-scale workloads).
    """

    spec: EmbeddingTableSpec
    distribution: AccessDistribution
    pooling: int
    permutation: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.pooling <= 0:
            raise ValueError(f"pooling must be positive, got {self.pooling}")
        if self.distribution.num_items != self.spec.rows:
            raise ValueError(
                "distribution covers "
                f"{self.distribution.num_items} rows but the table has {self.spec.rows}"
            )
        if self.permutation is not None:
            permutation = np.asarray(self.permutation, dtype=np.int64)
            object.__setattr__(self, "permutation", permutation)
            if permutation.shape != (self.spec.rows,):
                raise ValueError("permutation must assign every row a sorted rank")

    @property
    def rows(self) -> int:
        """Number of embedding vectors."""
        return self.spec.rows

    def coverage(self, k: int) -> float:
        """CDF over sorted ranks (Algorithm 1, line 11)."""
        return self.distribution.coverage(k)

    def expected_gathers(self, start_row: int, end_row: int) -> float:
        """Expected gathers per ranked item served by rows ``[start_row, end_row)``.

        This is Algorithm 1's ``n_s = (CDF(j) - CDF(k)) * n_t``.
        """
        probability = self.distribution.coverage_range(start_row, end_row)
        return probability * self.pooling


def preprocess_table(
    spec: EmbeddingTableSpec,
    pooling: int,
    access_counts: np.ndarray | None = None,
    distribution: AccessDistribution | None = None,
) -> SortedTable:
    """Build a :class:`SortedTable` from either observed counts or a distribution.

    Exactly one of ``access_counts`` / ``distribution`` must be supplied.
    Observed counts are sorted (Figure 8(b)) and wrapped in an
    :class:`~repro.data.distributions.EmpiricalDistribution`; a supplied
    distribution is assumed to already be expressed over hot-sorted ranks.
    """
    if (access_counts is None) == (distribution is None):
        raise ValueError("provide exactly one of access_counts or distribution")
    if access_counts is not None:
        counts = np.asarray(access_counts, dtype=np.float64)
        if counts.size != spec.rows:
            raise ValueError(
                f"access_counts has {counts.size} entries but the table has {spec.rows} rows"
            )
        permutation, _ = sort_by_hotness(counts)
        empirical = EmpiricalDistribution(counts)
        return SortedTable(
            spec=spec, distribution=empirical, pooling=pooling, permutation=permutation
        )
    return SortedTable(spec=spec, distribution=distribution, pooling=pooling)
