"""Synthetic stand-ins for the real-world access traces of Figure 6.

The paper plots the sorted access frequency of embedding vectors for Amazon
Books, Criteo and MovieLens and reports, for MovieLens, that 94% of accesses
are covered by the hottest 10% of vectors.  The raw Kaggle/GroupLens datasets
are not redistributable and are not available offline, so — per the
substitution rule recorded in DESIGN.md — we model each trace with a Zipf
distribution whose table size matches the figure's x-axis extent and whose
locality ``P`` matches the skew visible in the figure (MovieLens' 94% is
stated explicitly in the paper; the other two are slightly less skewed).

The planner only ever consumes the sorted-frequency CDF, so a matched-skew
synthetic trace exercises exactly the same code paths as the real data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.distributions import AccessDistribution, ZipfDistribution

__all__ = [
    "SyntheticDataset",
    "amazon_books",
    "criteo",
    "movielens",
    "dataset_presets",
]


@dataclass(frozen=True)
class SyntheticDataset:
    """A named synthetic embedding-access workload.

    Attributes
    ----------
    name:
        Human-readable dataset name.
    num_items:
        Number of embedding vectors (rows of the table the trace indexes).
    locality:
        The paper's ``P`` metric: fraction of accesses covered by the hottest
        10% of vectors.
    description:
        Short provenance note (what real dataset this stands in for).
    """

    name: str
    num_items: int
    locality: float
    description: str = ""
    _distribution: AccessDistribution | None = field(
        default=None, repr=False, compare=False
    )

    def distribution(self) -> AccessDistribution:
        """Access distribution matching this dataset's size and skew."""
        if self._distribution is not None:
            return self._distribution
        dist = ZipfDistribution.from_locality(self.num_items, self.locality)
        object.__setattr__(self, "_distribution", dist)
        return dist

    def access_frequency_curve(self, num_points: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """Sorted access-frequency curve as plotted in Figure 6.

        Returns ``(sorted_vector_id, access_frequency_percent)`` sampled at
        ``num_points`` log-spaced ranks, hottest first.  Frequencies are
        expressed in percent of total accesses, matching the figure's y-axis.
        """
        if num_points < 2:
            raise ValueError("num_points must be at least 2")
        dist = self.distribution()
        ranks = np.unique(
            np.clip(
                np.geomspace(1, self.num_items, num_points).astype(np.int64),
                1,
                self.num_items,
            )
        )
        if isinstance(dist, ZipfDistribution):
            freqs = dist.probability_range(0, self.num_items)[ranks - 1]
        else:  # pragma: no cover - presets are always Zipf
            freqs = dist.probabilities()[ranks - 1]
        return ranks - 1, freqs * 100.0


def amazon_books(num_items: int = 2_000_000) -> SyntheticDataset:
    """Synthetic equivalent of the Amazon Books review trace (Figure 6(a))."""
    return SyntheticDataset(
        name="amazon-books",
        num_items=num_items,
        locality=0.86,
        description=(
            "Synthetic Zipf trace standing in for the Kaggle Amazon Books "
            "reviews dataset used in Figure 6(a)."
        ),
    )


def criteo(num_items: int = 2_000_000) -> SyntheticDataset:
    """Synthetic equivalent of the Criteo display-advertising trace (Figure 6(b))."""
    return SyntheticDataset(
        name="criteo",
        num_items=num_items,
        locality=0.90,
        description=(
            "Synthetic Zipf trace standing in for the Criteo Display "
            "Advertising Challenge dataset used in Figure 6(b)."
        ),
    )


def movielens(num_items: int = 50_000) -> SyntheticDataset:
    """Synthetic equivalent of the MovieLens trace (Figure 6(c)).

    The paper states that 94% of MovieLens accesses are covered by the top
    10% hottest embeddings; the synthetic trace matches that locality.
    """
    return SyntheticDataset(
        name="movielens",
        num_items=num_items,
        locality=0.94,
        description=(
            "Synthetic Zipf trace standing in for the GroupLens MovieLens "
            "dataset used in Figure 6(c)."
        ),
    )


def dataset_presets() -> dict[str, SyntheticDataset]:
    """All Figure 6 dataset presets keyed by name."""
    presets = [amazon_books(), criteo(), movielens()]
    return {preset.name: preset for preset in presets}
