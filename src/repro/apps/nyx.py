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

from .base import ApplicationModel, FieldSpec, Stage

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
    partition_shape = (256, 256, 256)
    iteration_length_s = 4.2
    profile_shape = dict(
        num_main_tasks=4,
        main_busy_fraction=0.40,
        num_background_tasks=3,
        background_busy_fraction=0.30,
    )
    ratio_spread = {Stage.BEGINNING: 2.0, Stage.MIDDLE: 8.0, Stage.END: 20.0}
    block_noise_sigma = 0.05
    ratio_floor = 1.5

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
        rng = self._field_rng(rank, tag)
        white = rng.normal(0.0, 1.0, size=shape)
        smooth = ndimage.gaussian_filter(white, sigma=3.0, mode="wrap")
        # Center before scaling: on a small partition the sigma-3 wrap
        # filter leaves a std far below the mean, and the scaled mean
        # would overflow the density/temperature exponentials.
        smooth -= smooth.mean()
        std = smooth.std()
        return smooth / std if std > 0 else smooth
