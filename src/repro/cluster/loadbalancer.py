"""Generic replica-selection primitives (the Linkerd stand-in).

The paper uses Linkerd to route queries to shard replicas.  This module holds
the *generic* selection mechanics — they work on any replica type given a key
function — and :mod:`repro.serving.routing` builds the simulator-facing
routing policies on top of them.  Three primitives are provided:

* :class:`RoundRobinBalancer` — plain per-deployment round-robin;
* :class:`LeastOutstandingBalancer` — pick the replica minimising a caller
  supplied load key (Linkerd's EWMA-like default approximated by fewest
  in-flight requests, or by least pending work);
* :class:`PowerOfTwoBalancer` — sample two random replicas and keep the less
  loaded one, the classic "power of two choices" trick that gets most of the
  benefit of least-loaded routing with O(1) state inspection.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["RoundRobinBalancer", "LeastOutstandingBalancer", "PowerOfTwoBalancer"]

ReplicaT = TypeVar("ReplicaT")


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

    def pick(self, deployment_name: str, replicas: Sequence[ReplicaT]) -> ReplicaT:
        """Select the next replica for the deployment."""
        return replicas[self.pick_index(deployment_name, len(replicas))]

    def reset(self) -> None:
        """Forget every deployment's cursor."""
        self._cursors.clear()


class LeastOutstandingBalancer:
    """Selects the replica minimising a caller-supplied load key.

    Ties resolve to the earliest replica in the sequence, so callers that pass
    replicas in a stable order get deterministic selections.
    """

    def __init__(self, outstanding: Callable[[ReplicaT], float]) -> None:
        self._outstanding = outstanding

    def pick(self, deployment_name: str, replicas: Sequence[ReplicaT]) -> ReplicaT:
        """Select the least-loaded ready replica for the deployment."""
        if not replicas:
            raise ValueError(f"deployment {deployment_name!r} has no ready replicas")
        return min(replicas, key=self._outstanding)


class PowerOfTwoBalancer:
    """Samples two distinct replicas uniformly and keeps the less loaded one."""

    def __init__(
        self,
        outstanding: Callable[[ReplicaT], float],
        rng: np.random.Generator | None = None,
    ) -> None:
        self._outstanding = outstanding
        self._rng = rng or np.random.default_rng()

    def reset(self, rng: np.random.Generator) -> None:
        """Swap in a fresh random source (for reproducible runs)."""
        self._rng = rng

    def pick_pair(self, pool_size: int) -> tuple[int, int]:
        """Draw two distinct pool indices from the balancer's RNG.

        The serving engine's power-of-two policy calls this with the size of
        its routable candidate set.
        """
        first, second = self._rng.choice(pool_size, size=2, replace=False)
        return int(first), int(second)

    def pick(self, deployment_name: str, replicas: Sequence[ReplicaT]) -> ReplicaT:
        """Select the better of two uniformly sampled replicas."""
        if not replicas:
            raise ValueError(f"deployment {deployment_name!r} has no ready replicas")
        if len(replicas) == 1:
            return replicas[0]
        first, second = self.pick_pair(len(replicas))
        a, b = replicas[first], replicas[second]
        return a if self._outstanding(a) <= self._outstanding(b) else b
