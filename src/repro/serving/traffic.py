"""Query traffic patterns and Poisson arrival generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TrafficPhase", "TrafficPattern", "paper_dynamic_pattern"]


@dataclass(frozen=True)
class TrafficPhase:
    """A constant-rate segment of a traffic pattern."""

    start_s: float
    rate_qps: float

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.rate_qps < 0:
            raise ValueError("rate_qps must be non-negative")


@dataclass(frozen=True)
class TrafficPattern:
    """A piecewise-constant target query rate over a finite duration."""

    phases: tuple[TrafficPhase, ...]
    duration_s: float

    def __post_init__(self) -> None:
        phases = tuple(self.phases)
        object.__setattr__(self, "phases", phases)
        if not phases:
            raise ValueError("a traffic pattern needs at least one phase")
        if phases[0].start_s != 0:
            raise ValueError("the first phase must start at time 0")
        starts = [p.start_s for p in phases]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("phase start times must increase strictly")
        if self.duration_s <= starts[-1]:
            raise ValueError("duration_s must extend past the last phase start")
        # Cached phase arrays backing the array rate_at lookup.
        object.__setattr__(self, "_starts", np.asarray(starts, dtype=np.float64))
        object.__setattr__(
            self, "_rates", np.asarray([p.rate_qps for p in phases], dtype=np.float64)
        )

    @classmethod
    def constant(cls, rate_qps: float, duration_s: float) -> "TrafficPattern":
        """A single-phase constant-rate pattern."""
        return cls(phases=(TrafficPhase(0.0, rate_qps),), duration_s=duration_s)

    @classmethod
    def from_steps(
        cls, steps: list[tuple[float, float]], duration_s: float
    ) -> "TrafficPattern":
        """Build from ``(start_s, rate_qps)`` pairs."""
        return cls(
            phases=tuple(TrafficPhase(start, rate) for start, rate in steps),
            duration_s=duration_s,
        )

    def rate_at(self, time_s: "float | np.ndarray") -> "float | np.ndarray":
        """Target query rate at an instant — or at a whole array of instants.

        Times past the end of the pattern are clamped to the final rate, so
        samplers whose grid overshoots ``duration_s`` (e.g. a sample boundary
        landing just beyond the last arrival) read a well-defined value.

        Given an array, the lookup is one ``searchsorted`` over
        the phase starts and returns a float64 array — the engine builds the
        ``target_qps`` series this way instead of a per-sample Python loop.
        """
        if np.ndim(time_s) == 0:
            if time_s < 0:
                raise ValueError(f"time {time_s} outside the pattern duration")
            time_s = min(time_s, self.duration_s)
            # The active phase is the last one whose start is <= time_s.
            index = int(np.searchsorted(self._starts, time_s, side="right")) - 1
            return float(self._rates[index])
        times = np.asarray(time_s, dtype=np.float64)
        if times.size and float(times.min()) < 0:
            raise ValueError(f"time {float(times.min())} outside the pattern duration")
        clamped = np.minimum(times, self.duration_s)
        indices = np.searchsorted(self._starts, clamped, side="right") - 1
        return self._rates[indices]

    @property
    def peak_rate(self) -> float:
        """Highest target rate of the pattern."""
        return max(p.rate_qps for p in self.phases)

    def expected_queries(self) -> float:
        """Expected number of queries over the whole pattern."""
        total = 0.0
        for index, phase in enumerate(self.phases):
            end = (
                self.phases[index + 1].start_s
                if index + 1 < len(self.phases)
                else self.duration_s
            )
            total += phase.rate_qps * (end - phase.start_s)
        return total

    def arrivals(self, rng: np.random.Generator) -> np.ndarray:
        """Poisson arrival times over the pattern's duration (sorted)."""
        arrivals = []
        for index, phase in enumerate(self.phases):
            end = (
                self.phases[index + 1].start_s
                if index + 1 < len(self.phases)
                else self.duration_s
            )
            if phase.rate_qps <= 0:
                continue
            expected = phase.rate_qps * (end - phase.start_s)
            count = rng.poisson(expected)
            times = rng.uniform(phase.start_s, end, size=count)
            arrivals.append(times)
        if not arrivals:
            return np.empty(0, dtype=np.float64)
        return np.sort(np.concatenate(arrivals))


def paper_dynamic_pattern(
    base_qps: float = 50.0,
    peak_qps: float = 250.0,
    duration_s: float = 1800.0,
) -> TrafficPattern:
    """The Figure 19 traffic profile.

    The input traffic is raised in five equal increments between minute 5 and
    minute 20 and then reduced at minute 24; the experiment runs for 30
    simulated minutes.  Shorter (or longer) ``duration_s`` values keep the
    same shape by scaling every phase boundary proportionally.
    """
    if peak_qps <= base_qps:
        raise ValueError("peak_qps must exceed base_qps")
    increments = 5
    step = (peak_qps - base_qps) / increments
    time_scale = duration_s / 1800.0
    ramp_start, ramp_end, drop_at = (
        5 * 60.0 * time_scale,
        20 * 60.0 * time_scale,
        24 * 60.0 * time_scale,
    )
    phase_gap = (ramp_end - ramp_start) / (increments - 1)
    steps: list[tuple[float, float]] = [(0.0, base_qps)]
    for i in range(increments):
        steps.append((ramp_start + i * phase_gap, base_qps + (i + 1) * step))
    steps.append((drop_at, base_qps + step))
    return TrafficPattern.from_steps(steps, duration_s=duration_s)
