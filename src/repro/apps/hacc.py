"""HACC-like N-body application model (extension).

The paper's future work calls for "a wider range of real-world HPC
applications"; HACC (Hardware/Hybrid Accelerated Cosmology Code, cited in
the paper's related work) is the natural third: a particle-only N-body
code whose dumped payload is *particle* data — positions and velocities —
which is far less compressible than gridded fields (particles are
near-random within a cell, so Lorenzo prediction gains little).  Typical
error-bounded ratios on HACC data are ~4-6x, an order of magnitude below
Nyx, which places HACC near the low-ratio end of Figure 7 where the
framework's gains are smallest — a useful stress case.

Structure: six 1-D particle arrays (xx, yy, zz, vx, vy, vz).  Positions
drift coherently across iterations (particles move smoothly), so
consecutive dumps stay similar; compressibility spreads across ranks are
small (particle counts per rank are balanced by design in HACC).
"""

from __future__ import annotations

import numpy as np

from .base import ApplicationModel, FieldSpec, Stage

__all__ = ["HaccModel"]

_FIELDS = (
    FieldSpec("xx", 1.0e-3, 5.0),
    FieldSpec("yy", 1.0e-3, 5.0),
    FieldSpec("zz", 1.0e-3, 5.0),
    FieldSpec("vx", 5.0e0, 4.5),
    FieldSpec("vy", 5.0e0, 4.5),
    FieldSpec("vz", 5.0e0, 4.5),
)


class HaccModel(ApplicationModel):
    """Synthetic HACC: particle arrays, low compression ratios."""

    name = "hacc"
    fields = _FIELDS
    partition_shape = (2**24,)  # particles: 128 MiB per field
    iteration_length_s = 3.0
    profile_shape = dict(
        num_main_tasks=3,
        main_busy_fraction=0.5,
        num_background_tasks=3,
        background_busy_fraction=0.35,
    )
    # Particle counts are balanced across ranks; compressibility
    # varies only mildly with local clustering.
    ratio_spread = {Stage.BEGINNING: 1.2, Stage.MIDDLE: 1.5, Stage.END: 2.0}
    block_noise_sigma = 0.03
    ratio_floor = 1.2

    # -- data --------------------------------------------------------------
    def generate_field(
        self,
        field_name: str,
        rank: int,
        iteration: int,
        shape: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        count = (shape or self.partition_shape)[0]
        rng = self._field_rng(rank, field_name)
        t = iteration / max(self.total_iterations - 1, 1)
        if field_name in ("xx", "yy", "zz"):
            # Positions: sorted base positions plus a coherent drift and
            # small per-particle scatter — locally correlated once sorted
            # (HACC dumps are spatially ordered), modestly compressible.
            base = np.sort(rng.uniform(0.0, 256.0, size=count))
            drift = 4.0 * t
            scatter = rng.normal(0.0, 0.02, size=count)
            return (base + drift + scatter).astype(self.dtype)
        # Velocities: bulk flow plus thermal scatter.
        bulk = rng.normal(0.0, 300.0)
        thermal = rng.normal(0.0, 80.0, size=count)
        growth = 1.0 + 0.5 * t
        return (growth * (bulk + thermal)).astype(self.dtype)
