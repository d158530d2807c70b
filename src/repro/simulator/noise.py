"""Task-duration noise from Section 5.4.1.

The paper's simulation perturbs four predicted quantities.  Two of them
live in the application model: each iteration's obstacle layout is
jittered by ``ApplicationModel.iteration_profile`` (1 % of the interval
length), and each block's compression ratio by
``ApplicationModel.block_ratios`` (per-block noise plus a rank drift).
:class:`NoiseModel` draws the other two, the *actual* task durations
the execution replay uses given the *predicted* ones the scheduler used:

* compression time:  ``sigma = 0.05 * T_c``;
* I/O time:          ``sigma = 0.05 * T_io``.

Injected slow-downs (stragglers, bandwidth collapse) are not noise: the
process runtime applies them on top of these draws.  A zero-sigma model
makes execution exactly match the plan (useful in tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.model import Interval

__all__ = ["NoiseModel", "ActualDurations", "ZERO_NOISE"]


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
    """Gaussian perturbation of predicted task durations (Section 5.4.1)."""

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


#: Convenience model with both sigmas zero (actuals == predictions).
ZERO_NOISE = NoiseModel(compression_sigma_frac=0.0, io_sigma_frac=0.0)
