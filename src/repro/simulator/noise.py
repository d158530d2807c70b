"""Uncertainty models from Section 5.4.1.

The simulation-based evaluation perturbs every predicted quantity with
normally distributed noise:

* computing/core interval start and end times: ``sigma = 0.01 * T_n``;
* compression ratio:       ``sigma = 0.10 * R``;
* compression throughput:  ``sigma = 0.05 * T_c``;
* I/O time:                ``sigma = 0.05 * T_io``.

:class:`NoiseModel` draws the *actual* values the execution replay uses,
given the *predicted* values the scheduler used.  A zero-sigma model
makes execution exactly match the plan (useful in tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.model import Interval, ProblemInstance
from ..resilience.faults import FaultInjector

__all__ = [
    "NoiseModel",
    "FaultAwareNoiseModel",
    "ActualDurations",
    "ZERO_NOISE",
]


@dataclass(frozen=True)
class ActualDurations:
    """Actual task durations and obstacle intervals for one iteration."""

    length: float
    main_obstacles: tuple[Interval, ...]
    background_obstacles: tuple[Interval, ...]
    compression_times: tuple[float, ...]
    io_times: tuple[float, ...]


@dataclass
class NoiseModel:
    """Gaussian perturbation of predicted values (Section 5.4.1)."""

    interval_sigma_frac: float = 0.01
    ratio_sigma_frac: float = 0.10
    compression_sigma_frac: float = 0.05
    io_sigma_frac: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def _positive_normal(self, mean: float, sigma: float) -> float:
        if sigma <= 0.0:
            return mean
        draw = float(self._rng.normal(mean, sigma))
        return max(draw, mean * 0.1, 1e-12)

    def perturb_ratio(self, ratio: float) -> float:
        """Actual compression ratio given the predicted one."""
        return self._positive_normal(ratio, self.ratio_sigma_frac * ratio)

    def perturb_compression_time(self, duration: float) -> float:
        return self._positive_normal(
            duration, self.compression_sigma_frac * duration
        )

    def perturb_io_time(self, duration: float) -> float:
        return self._positive_normal(duration, self.io_sigma_frac * duration)

    def perturb_dump(
        self, compression_s: np.ndarray, io_s: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One dump's actual task durations, drawn in one call.

        Job ``j`` has predicted times ``compression_s[j]`` and ``io_s[j]``;
        jobs past ``len(compression_s)`` only write (moved-in blocks).
        The values and the generator's state come out as from one
        :meth:`perturb_compression_time` and one :meth:`perturb_io_time`
        call per task, job by job, with zero means (moved-out writes)
        drawing nothing.
        """
        n = len(compression_s)
        comp_at = slice(0, 2 * n, 2)
        io_at = np.r_[1 : 2 * n : 2, 2 * n : n + len(io_s)]
        means = np.empty(n + len(io_s))
        sigmas = np.empty_like(means)
        means[comp_at] = compression_s
        means[io_at] = io_s
        sigmas[comp_at] = means[comp_at] * self.compression_sigma_frac
        sigmas[io_at] = means[io_at] * self.io_sigma_frac
        drawn = sigmas > 0.0
        mean = means[drawn]
        actual = means.copy()
        actual[drawn] = np.maximum(
            np.maximum(self._rng.normal(mean, sigmas[drawn]), mean * 0.1),
            1e-12,
        )
        return actual[comp_at], actual[io_at]

    def _perturb_obstacles(
        self,
        obstacles: tuple[Interval, ...],
        begin: float,
        sigma: float,
    ) -> tuple[Interval, ...]:
        """Jitter interval endpoints, preserving order and disjointness."""
        if sigma <= 0.0 or not obstacles:
            return obstacles
        out: list[Interval] = []
        cursor = begin
        for obs in obstacles:
            start = max(cursor, obs.start + float(self._rng.normal(0, sigma)))
            min_duration = obs.duration * 0.1
            end = max(
                start + min_duration,
                obs.end + float(self._rng.normal(0, sigma)),
            )
            out.append(Interval(start, end))
            cursor = end
        return tuple(out)

    def actual_durations(
        self,
        instance: ProblemInstance,
        predicted_compression: tuple[float, ...],
        predicted_io: tuple[float, ...],
    ) -> ActualDurations:
        """Draw one iteration's actual values from the predictions."""
        sigma = self.interval_sigma_frac * instance.length
        length = self._positive_normal(instance.length, sigma)
        return ActualDurations(
            length=length,
            main_obstacles=self._perturb_obstacles(
                instance.main_obstacles, instance.begin, sigma
            ),
            background_obstacles=self._perturb_obstacles(
                instance.background_obstacles, instance.begin, sigma
            ),
            compression_times=tuple(
                self.perturb_compression_time(d)
                for d in predicted_compression
            ),
            io_times=tuple(
                self.perturb_io_time(d) for d in predicted_io
            ),
        )


@dataclass(kw_only=True)
class FaultAwareNoiseModel(NoiseModel):
    """Gaussian noise compounded with injected degradations.

    On top of the Section 5.4.1 perturbations, one rank's actual
    durations absorb its straggler slow-down and any heavy-tailed
    bandwidth-collapse burst the
    :class:`~repro.resilience.faults.FaultInjector` schedules for the
    current iteration (set via :meth:`set_fault_context` before each
    dump).  Determinism is preserved: the Gaussian stream comes from the
    base seed, the fault decisions from the injector's keyed draws.
    """

    injector: FaultInjector
    rank: int
    iteration: int = field(default=0, init=False)

    def set_fault_context(self, iteration: int) -> None:
        """Tell the model which iteration's bursts apply."""
        self.iteration = iteration

    # The slow-downs take one duration or an array of them alike.
    def _slow_compression(self, duration):
        return duration * self.injector.straggler_compression_factor(self.rank)

    def _slow_io(self, duration):
        duration = duration * self.injector.straggler_io_factor(self.rank)
        factor = self.injector.bandwidth_factor(self.rank, self.iteration)
        return duration / factor if factor != 1.0 else duration

    def perturb_compression_time(self, duration: float) -> float:
        duration = NoiseModel.perturb_compression_time(self, duration)
        return self._slow_compression(duration)

    def perturb_io_time(self, duration: float) -> float:
        return self._slow_io(NoiseModel.perturb_io_time(self, duration))

    def perturb_dump(
        self, compression_s: np.ndarray, io_s: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # The injector is asked what per-task calls would have asked
        # first, so fault tallies and trace events keep their order.
        compression, io = NoiseModel.perturb_dump(self, compression_s, io_s)
        if len(compression):
            compression = self._slow_compression(compression)
        if io_s.any():  # else every write moved out: no I/O task here
            io = self._slow_io(io)
        return compression, io


#: Convenience model with every sigma zero (actuals == predictions).
ZERO_NOISE = NoiseModel(
    interval_sigma_frac=0.0,
    ratio_sigma_frac=0.0,
    compression_sigma_frac=0.0,
    io_sigma_frac=0.0,
)
