"""Application model abstraction for iterative HPC simulations.

The evaluation uses an application only through three interfaces:

1. its **iteration profile** — how long an iteration runs and where the
   immovable compute/core tasks sit on the two threads (Section 3.1's
   obstacles);
2. its **data compressibility** — per-rank, per-field, per-block
   compression ratios and how they drift across iterations (Sections 3.4
   and 4.3 depend on the drift being slow);
3. its **data itself** — synthetic fields with the right spatial
   structure, for experiments that really compress (Figures 4-6).

:class:`ApplicationModel` implements the first two once; the concrete
models (:mod:`repro.apps.nyx`, :mod:`repro.apps.warpx`,
:mod:`repro.apps.hacc`) set their constants from the paper's reported
characteristics and synthesize their own fields.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .workloads import IterationProfile, generate_profile, jitter_profile

__all__ = ["Stage", "FieldSpec", "IterationProfile", "ApplicationModel"]


class Stage(enum.Enum):
    """Run phase, as sampled in Section 5.2: the data distribution starts
    even, becomes structured, and ends highly centralized."""

    BEGINNING = "beginning"
    MIDDLE = "middle"
    END = "end"


@dataclass(frozen=True)
class FieldSpec:
    """One data field the application dumps.

    Attributes:
        name: field name (e.g. ``"temperature"``).
        error_bound: absolute error bound used for this field (the paper's
            Section 5.1 per-field configuration).
        base_ratio: typical compression ratio at that bound.
    """

    name: str
    error_bound: float
    base_ratio: float


class ApplicationModel(ABC):
    """One iterative application: its profiles, ratios and fields.

    Porting an application means a subclass that sets the class
    constants below and implements :meth:`generate_field`; iteration
    profiles, run stages and block-ratio draws are shared.
    """

    #: Application name for reports.
    name: str = "application"
    #: Fields dumped each snapshot.
    fields: tuple[FieldSpec, ...] = ()
    #: Default per-process partition shape (values, not bytes).
    partition_shape: tuple[int, ...] = ()
    #: Field dtype.
    dtype = np.dtype(np.float64)
    #: Default iteration length in seconds.
    iteration_length_s: float
    #: :func:`~repro.apps.workloads.generate_profile` task counts and
    #: busy fractions of the base iteration profile.
    profile_shape: ClassVar[Mapping[str, float]]
    #: Intra-node max/min compression-ratio spread per stage.
    ratio_spread: ClassVar[Mapping[Stage, float]]
    #: Relative sigma of the per-block ratio noise.
    block_noise_sigma: float
    #: Lowest per-block compression ratio drawn.
    ratio_floor: float

    def __init__(
        self,
        seed: int = 0,
        partition_shape: tuple[int, ...] | None = None,
        iteration_length_s: float | None = None,
        total_iterations: int = 30,
    ) -> None:
        self.seed = seed
        if partition_shape is not None:
            self.partition_shape = partition_shape
        if iteration_length_s is not None:
            self.iteration_length_s = iteration_length_s
        self.total_iterations = total_iterations
        #: ``((node_size, stage, iteration), multipliers)`` last drawn.
        self._multipliers: tuple[tuple, np.ndarray] | None = None
        self._base_profile = generate_profile(
            length=self.iteration_length_s,
            rng=self._rng(1),
            **self.profile_shape,
        )

    # -- iteration structure -------------------------------------------
    def iteration_profile(self, iteration: int) -> IterationProfile:
        """Obstacle layout of one iteration (deterministic per seed)."""
        return jitter_profile(
            self._base_profile, self._rng(2, iteration), 0.01
        )

    # -- compressibility ------------------------------------------------
    def stage_of(
        self, iteration: int, total_iterations: int | None = None
    ) -> Stage:
        """Which run phase an iteration belongs to (thirds of the run)."""
        total = total_iterations or self.total_iterations
        frac = iteration / max(total - 1, 1)
        if frac < 1 / 3:
            return Stage.BEGINNING
        if frac < 2 / 3:
            return Stage.MIDDLE
        return Stage.END

    def max_ratio_difference(self, stage: Stage) -> float:
        """Intra-node max/min compression-ratio spread at this stage."""
        return self.ratio_spread[stage]

    def block_ratios(
        self,
        rank: int,
        iteration: int,
        blocks_per_field: int,
        node_size: int,
        stage: Stage | None = None,
    ) -> dict[str, np.ndarray]:
        """Actual per-block compression ratios for one rank's dump.

        The node's multipliers do not depend on the rank, so they are
        drawn once per iteration (:meth:`rank_multipliers`, kept for the
        node's other ranks); the rank's block noise is one draw of
        ``(fields, blocks_per_field)``, row by row the values per-field
        draws would give.
        """
        if stage is None:
            stage = self.stage_of(iteration, self.total_iterations)
        key = (node_size, stage, iteration)
        if self._multipliers is None or self._multipliers[0] != key:
            multipliers = np.array(self.rank_multipliers(*key))
            multipliers.flags.writeable = False
            self._multipliers = (key, multipliers)
        mult = self._multipliers[1][rank % node_size]
        shape = (len(self.fields), blocks_per_field)
        block_noise = self._rng(3, rank, iteration).normal(
            1.0, self.block_noise_sigma, size=shape
        )
        base = np.array([[spec.base_ratio] for spec in self.fields], float)
        ratios = np.clip(base * mult * block_noise, self.ratio_floor, None)
        return dict(zip((spec.name for spec in self.fields), ratios))

    # -- data ------------------------------------------------------------
    @abstractmethod
    def generate_field(
        self,
        field_name: str,
        rank: int,
        iteration: int,
        shape: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        """Synthesize one field partition with realistic structure."""

    # -- helpers shared by subclasses ------------------------------------
    def field(self, name: str) -> FieldSpec:
        for spec in self.fields:
            if spec.name == name:
                return spec
        raise KeyError(f"{self.name} has no field {name!r}")

    def partition_nbytes(self) -> int:
        return int(
            np.prod(self.partition_shape, dtype=np.int64)
        ) * self.dtype.itemsize

    def _rng(self, *streams: int) -> np.random.Generator:
        """A deterministic generator namespaced by (seed, streams...)."""
        return np.random.default_rng((self.seed, *streams))

    def _field_rng(self, rank: int, tag: str) -> np.random.Generator:
        """The data stream of one rank's field (or named sub-field)."""
        # FNV-1a-style, kept to 31 bits; unlike hash() it is the same
        # in every process.
        value = 2166136261
        for ch in tag.encode():
            value = (value ^ ch) * 16777619 % (2**31)
        return self._rng(4, rank, value)

    def rank_multipliers(
        self, node_size: int, stage: Stage, iteration: int
    ) -> np.ndarray:
        """Per-local-rank ratio multipliers with the stage's spread.

        Multipliers follow a normal distribution whose extremes span the
        stage's ``max_ratio_difference`` (Section 5.2's methodology), and
        drift ~1.45 % per iteration (the paper's measured Nyx stability)
        so consecutive dumps stay predictable from history.
        """
        spread = self.max_ratio_difference(stage)
        base_rng = self._rng(1000, node_size, _stage_index(stage))
        # Draw once per stage; spread maps the +-2 sigma range onto
        # [1/sqrt(spread), sqrt(spread)] so max/min ~= spread.
        z = base_rng.normal(0.0, 1.0, size=node_size)
        z = np.clip(z, -2.5, 2.5)
        log_span = 0.5 * np.log(max(spread, 1.0))
        multipliers = np.exp(z / 2.0 * log_span)
        drift_rng = self._rng(2000, iteration)
        drift = drift_rng.normal(1.0, 0.0145, size=node_size)
        return multipliers * np.clip(drift, 0.9, 1.1)


def _stage_index(stage: Stage) -> int:
    return list(Stage).index(stage)
