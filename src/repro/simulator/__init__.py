"""Modelled-execution substrate: noise models (Section 5.4.1), closed-form
schedule replay under actual durations, cluster topology, and traces."""

from .node import ClusterSpec
from .noise import (
    ZERO_NOISE,
    ActualDurations,
    FaultAwareNoiseModel,
    NoiseModel,
)
from .replay import ExecutionResult, execute_schedule
from .trace import (
    TraceEvent,
    execution_to_trace,
    render_gantt,
    schedule_to_trace,
    trace_to_csv,
    trace_to_json,
)

__all__ = [
    "ClusterSpec",
    "NoiseModel",
    "FaultAwareNoiseModel",
    "ActualDurations",
    "ZERO_NOISE",
    "ExecutionResult",
    "execute_schedule",
    "TraceEvent",
    "schedule_to_trace",
    "execution_to_trace",
    "render_gantt",
    "trace_to_csv",
    "trace_to_json",
]
