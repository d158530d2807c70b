"""Application simulators: Nyx-, WarpX- and HACC-like iterative workloads."""

from .base import ApplicationModel, FieldSpec, IterationProfile, Stage
from .hacc import HaccModel
from .nyx import NyxModel
from .warpx import WarpXModel
from .workloads import (
    generate_profile,
    jitter_profile,
    profile_from_json,
    profile_to_json,
)

__all__ = [
    "ApplicationModel",
    "FieldSpec",
    "IterationProfile",
    "Stage",
    "NyxModel",
    "HaccModel",
    "WarpXModel",
    "generate_profile",
    "jitter_profile",
    "profile_to_json",
    "profile_from_json",
]
