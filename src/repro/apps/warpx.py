"""WarpX-like particle-in-cell application model.

Reproduces the characteristics the paper reports for WarpX (Sections 2.3,
5.1): ten electromagnetic/particle fields compressed at a very high
average ratio (273.9x, the setting "suggested by the application
developers"), weak-scaling partitions of 128 x 128 x 1024 per process,
and a laser-plasma structure where almost the whole domain is quiet
vacuum except a localized, moving interaction region — which is exactly
why such extreme ratios are achievable.
"""

from __future__ import annotations

import numpy as np

from .base import ApplicationModel, FieldSpec, Stage

__all__ = ["WarpXModel"]

_FIELDS = tuple(
    FieldSpec(name, bound, 273.9)
    for name, bound in (
        ("Ex", 1.0e4),
        ("Ey", 1.0e4),
        ("Ez", 1.0e4),
        ("Bx", 1.0e-2),
        ("By", 1.0e-2),
        ("Bz", 1.0e-2),
        ("jx", 1.0e2),
        ("jy", 1.0e2),
        ("jz", 1.0e2),
        ("rho", 1.0e-8),
    )
)


class WarpXModel(ApplicationModel):
    """Synthetic WarpX: PIC laser-plasma run, 10 fields, CR ~274x."""

    name = "warpx"
    fields = _FIELDS
    partition_shape = (128, 128, 512)
    iteration_length_s = 3.4
    profile_shape = dict(
        num_main_tasks=5,
        main_busy_fraction=0.45,
        num_background_tasks=4,
        background_busy_fraction=0.32,
    )
    # The interaction region touches few partitions; spreads stay
    # moderate compared to Nyx's end-stage clustering.
    ratio_spread = {Stage.BEGINNING: 1.5, Stage.MIDDLE: 3.0, Stage.END: 6.0}
    block_noise_sigma = 0.08
    ratio_floor = 2.0

    # -- data --------------------------------------------------------------
    def generate_field(
        self,
        field_name: str,
        rank: int,
        iteration: int,
        shape: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        shape = shape or self.partition_shape
        if len(shape) != 3:
            raise ValueError("WarpX fields are 3-D")
        # A localized interaction blob travelling along the z axis.
        t = iteration / max(self.total_iterations - 1, 1)
        z_center = (0.1 + 0.8 * t) * shape[2]
        zz = np.arange(shape[2])
        xx = np.arange(shape[0])[:, None, None]
        yy = np.arange(shape[1])[None, :, None]
        envelope_z = np.exp(
            -((zz - z_center) ** 2) / (2 * (shape[2] * 0.03) ** 2)
        )[None, None, :]
        envelope_xy = np.exp(
            -((xx - shape[0] / 2) ** 2 + (yy - shape[1] / 2) ** 2)
            / (2 * (max(shape[0], 2) * 0.15) ** 2)
        )
        rng = self._field_rng(rank, field_name)
        carrier = np.sin(
            2 * np.pi * zz / max(8.0, shape[2] / 64)
            + rng.uniform(0, 2 * np.pi)
        )[None, None, :]
        amplitude = {
            "E": 1.0e7,
            "B": 1.0e1,
            "j": 1.0e5,
            "r": 1.0e-5,
        }[field_name[0]]
        signal = amplitude * envelope_xy * envelope_z * carrier
        noise_level = amplitude * 1e-6
        noise = rng.normal(0.0, noise_level, size=shape)
        return (signal + noise).astype(self.dtype)
