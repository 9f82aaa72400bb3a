"""Generic replica-selection primitives (the Linkerd stand-in).

The paper uses Linkerd to route queries to shard replicas.  This module holds
the *generic* selection mechanics — they work on pool indices, whatever the
replica type — and :mod:`repro.serving.routing` builds the simulator-facing
routing policies on top of them.  Two primitives are provided:

* :class:`RoundRobinBalancer` — plain per-deployment round-robin;
* :class:`PowerOfTwoBalancer` — sample two random replicas so the caller can
  keep the less loaded one, the classic "power of two choices" trick that
  gets most of the benefit of least-loaded routing with O(1) state
  inspection.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RoundRobinBalancer", "PowerOfTwoBalancer"]


class RoundRobinBalancer:
    """Cycles through the ready replicas of each deployment."""

    def __init__(self) -> None:
        self._cursors: dict[str, int] = {}

    def pick_index(self, deployment_name: str, pool_size: int) -> int:
        """Advance the deployment's cursor and return the pick's pool index.

        The serving engine's round-robin policy calls this with the size of
        its routable candidate set.
        """
        if pool_size < 1:
            raise ValueError(f"deployment {deployment_name!r} has no ready replicas")
        cursor = self._cursors.get(deployment_name, 0) % pool_size
        self._cursors[deployment_name] = cursor + 1
        return cursor

    def reset(self) -> None:
        """Forget every deployment's cursor."""
        self._cursors.clear()


class PowerOfTwoBalancer:
    """Samples two distinct replicas uniformly."""

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._rng = rng or np.random.default_rng()

    def reset(self, rng: np.random.Generator) -> None:
        """Swap in a fresh random source (for reproducible runs)."""
        self._rng = rng

    def pick_pair(self, pool_size: int) -> tuple[int, int]:
        """Draw two distinct pool indices from the balancer's RNG.

        The serving engine's power-of-two policy calls this with the size of
        its routable candidate set and keeps the less loaded pick.
        """
        first, second = self._rng.choice(pool_size, size=2, replace=False)
        return int(first), int(second)
