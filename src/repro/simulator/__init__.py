"""Modelled-execution substrate: task-duration noise (Section 5.4.1),
closed-form schedule replay under actual durations, and cluster
topology.  A replay draws itself as spans (``execute_schedule(tracer=)``)
for :func:`repro.telemetry.render_gantt`."""

from .node import ClusterSpec
from .noise import ZERO_NOISE, ActualDurations, NoiseModel
from .replay import ExecutionResult, execute_schedule

__all__ = [
    "ClusterSpec",
    "NoiseModel",
    "ActualDurations",
    "ZERO_NOISE",
    "ExecutionResult",
    "execute_schedule",
]
