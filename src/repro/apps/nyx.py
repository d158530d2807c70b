"""Nyx-like cosmology application model.

Reproduces the characteristics the paper reports for Nyx (Sections 2.3,
5.1, 5.2):

* nine dumped fields — six grid fields with the paper's absolute error
  bounds (baryon density 0.2, dark matter density 0.4, temperature 1e3,
  velocities 2e5) plus three particle-velocity fields — averaging a ~16x
  compression ratio;
* data distribution evolving from even (beginning) through structured
  (middle) to highly centralized (end), with intra-node max
  compression-ratio differences up to ~20;
* iteration durations around the ~4.0-4.7 s range of Table 1, with the
  main thread largely idle while the GPU computes.

Synthetic fields come from a fixed per-rank Gaussian random field pushed
through a clustering transform whose strength grows with the iteration
number — mimicking gravitational structure formation, so consecutive
iterations stay similar (the shared-Huffman-tree premise) while the run's
stages differ markedly.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .base import ApplicationModel, FieldSpec, IterationProfile, Stage
from .workloads import generate_profile, jitter_profile

__all__ = ["NyxModel"]

_GRID_FIELDS = (
    FieldSpec("baryon_density", 0.2, 14.0),
    FieldSpec("dark_matter_density", 0.4, 15.0),
    FieldSpec("temperature", 1.0e3, 18.0),
    FieldSpec("velocity_x", 2.0e5, 16.0),
    FieldSpec("velocity_y", 2.0e5, 16.0),
    FieldSpec("velocity_z", 2.0e5, 16.0),
)
_PARTICLE_FIELDS = (
    FieldSpec("particle_vx", 2.0e5, 16.0),
    FieldSpec("particle_vy", 2.0e5, 16.0),
    FieldSpec("particle_vz", 2.0e5, 16.0),
)


class NyxModel(ApplicationModel):
    """Synthetic Nyx: adaptive-mesh cosmology, GPU compute, 9 fields."""

    name = "nyx"
    fields = _GRID_FIELDS + _PARTICLE_FIELDS
    dtype = np.dtype(np.float64)

    def __init__(
        self,
        seed: int = 0,
        partition_shape: tuple[int, ...] = (256, 256, 256),
        iteration_length_s: float = 4.2,
        total_iterations: int = 30,
    ) -> None:
        super().__init__(seed)
        self.partition_shape = partition_shape
        self.iteration_length_s = iteration_length_s
        self.total_iterations = total_iterations
        self._base_profile = generate_profile(
            length=iteration_length_s,
            num_main_tasks=4,
            main_busy_fraction=0.40,
            num_background_tasks=3,
            background_busy_fraction=0.30,
            rng=self._rng(1),
        )

    # -- iteration structure -------------------------------------------
    def iteration_profile(self, iteration: int) -> IterationProfile:
        return jitter_profile(
            self._base_profile, self._rng(2, iteration), 0.01
        )

    # -- compressibility --------------------------------------------------
    def stage_of(self, iteration: int, total_iterations: int | None = None) -> Stage:
        total = total_iterations or self.total_iterations
        frac = iteration / max(total - 1, 1)
        if frac < 1 / 3:
            return Stage.BEGINNING
        if frac < 2 / 3:
            return Stage.MIDDLE
        return Stage.END

    def max_ratio_difference(self, stage: Stage) -> float:
        return {Stage.BEGINNING: 2.0, Stage.MIDDLE: 8.0, Stage.END: 20.0}[
            stage
        ]

    def block_ratios(
        self,
        rank: int,
        iteration: int,
        blocks_per_field: int,
        node_size: int,
        stage: Stage | None = None,
    ) -> dict[str, np.ndarray]:
        if stage is None:
            stage = self.stage_of(iteration, self.total_iterations)
        multipliers = self.rank_multipliers(node_size, stage, iteration)
        mult = multipliers[rank % node_size]
        rng = self._rng(3, rank, iteration)
        out: dict[str, np.ndarray] = {}
        for spec in self.fields:
            block_noise = rng.normal(1.0, 0.05, size=blocks_per_field)
            out[spec.name] = np.clip(
                spec.base_ratio * mult * block_noise, 1.5, None
            )
        return out

    # -- data --------------------------------------------------------------
    def generate_field(
        self,
        field_name: str,
        rank: int,
        iteration: int,
        shape: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        shape = shape or self.partition_shape
        spec = self.field(field_name)
        base = self._base_noise(rank, field_name, shape)
        # Structure grows with iteration: stronger clustering bias and a
        # slow morphing of the underlying field.
        t = iteration / max(self.total_iterations - 1, 1)
        morph = self._base_noise(rank, field_name + "#morph", shape)
        field = (1.0 - 0.15 * t) * base + 0.15 * t * morph

        if "density" in field_name:
            # Nyx densities are overdensities (units of the cosmic mean),
            # O(1) with a heavy clustering tail — which is why the
            # paper's absolute bounds of 0.2/0.4 are meaningful.
            bias = 1.0 + 3.0 * t  # clustering strength
            rho = np.exp(bias * field)
            return (rho / rho.mean()).astype(self.dtype)
        if field_name == "temperature":
            bias = 1.0 + 2.0 * t
            rho = np.exp(bias * field)
            temp = 1.0e4 * (rho / rho.mean()) ** (2.0 / 3.0)
            return temp.astype(self.dtype)
        # Velocity-like fields: large-scale flows ~ 1e7, eb 2e5 (~2 %).
        return (2.0e7 * field).astype(self.dtype)

    def _base_noise(
        self, rank: int, tag: str, shape: tuple[int, ...]
    ) -> np.ndarray:
        rng = self._rng(4, rank, _stable_hash(tag))
        white = rng.normal(0.0, 1.0, size=shape)
        smooth = ndimage.gaussian_filter(white, sigma=3.0, mode="wrap")
        # Center before scaling: on a small partition the sigma-3 wrap
        # filter leaves a std far below the mean, and the scaled mean
        # would overflow the density/temperature exponentials.
        smooth -= smooth.mean()
        std = smooth.std()
        return smooth / std if std > 0 else smooth


def _stable_hash(text: str) -> int:
    value = 2166136261
    for ch in text.encode():
        value = (value ^ ch) * 16777619 % (2**31)
    return value
