"""Execution traces and text Gantt rendering.

Schedules and replayed executions convert to a flat list of
:class:`TraceEvent` rows, one per task or obstacle, which examples print
as an ASCII Gantt chart (the textual equivalent of the paper's Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.model import Schedule
from .replay import ExecutionResult

__all__ = [
    "TraceEvent",
    "schedule_to_trace",
    "execution_to_trace",
    "render_gantt",
    "trace_to_csv",
    "trace_to_json",
]

_GLYPHS = {
    "compute": "Y",
    "core": "G",
    "compression": "R",
    "io": "B",
    "overflow": "O",
}


@dataclass(frozen=True)
class TraceEvent:
    """One bar of a Gantt chart."""

    resource: str  # e.g. "main", "background"
    kind: str  # "compute", "core", "compression", "io"
    label: str
    start: float
    end: float


def schedule_to_trace(schedule: Schedule) -> list[TraceEvent]:
    """Trace rows for a *planned* schedule, obstacles included."""
    inst = schedule.instance
    events = [
        TraceEvent("main", "compute", f"Y{i+1}", obs.start, obs.end)
        for i, obs in enumerate(inst.main_obstacles)
    ]
    events += [
        TraceEvent("background", "core", f"G{i+1}", obs.start, obs.end)
        for i, obs in enumerate(inst.background_obstacles)
    ]
    events += [
        TraceEvent("main", "compression", f"R{j+1}", iv.start, iv.end)
        for j, iv in schedule.compression.items()
    ]
    events += [
        TraceEvent("background", "io", f"B{j+1}", iv.start, iv.end)
        for j, iv in schedule.io.items()
    ]
    events.sort(key=lambda e: (e.resource, e.start))
    return events


def execution_to_trace(result: ExecutionResult) -> list[TraceEvent]:
    """Trace rows for an *actual* replayed execution."""
    events = [
        TraceEvent("main", "compute", f"Y{i+1}", obs.start, obs.end)
        for i, obs in enumerate(result.main_obstacles)
    ]
    events += [
        TraceEvent("background", "core", f"G{i+1}", obs.start, obs.end)
        for i, obs in enumerate(result.background_obstacles)
    ]
    events += [
        TraceEvent("main", "compression", f"R{j+1}", iv.start, iv.end)
        for j, iv in result.compression.items()
    ]
    events += [
        TraceEvent("background", "io", f"B{j+1}", iv.start, iv.end)
        for j, iv in result.io.items()
    ]
    events += [
        TraceEvent("background", "overflow", f"B+{k+1}", iv.start, iv.end)
        for k, iv in enumerate(result.extra_io)
    ]
    events.sort(key=lambda e: (e.resource, e.start))
    return events


def trace_to_csv(events: list[TraceEvent]) -> str:
    """Trace rows as CSV (resource,kind,label,start,end) for external
    timeline viewers."""
    lines = ["resource,kind,label,start,end"]
    for e in events:
        lines.append(
            f"{e.resource},{e.kind},{e.label},{e.start:.9g},{e.end:.9g}"
        )
    return "\n".join(lines) + "\n"


def trace_to_json(events: list[TraceEvent]) -> str:
    """Trace rows as a JSON array (Chrome-trace-style fields)."""
    import json

    return json.dumps(
        [
            {
                "resource": e.resource,
                "kind": e.kind,
                "label": e.label,
                "start": e.start,
                "end": e.end,
            }
            for e in events
        ]
    )


def render_gantt(events: list[TraceEvent], width: int = 72) -> str:
    """Render trace rows as an ASCII Gantt chart, one line per resource.

    Compute obstacles print as ``Y``, core tasks ``G``, compression ``R``,
    I/O ``B`` — matching the paper's Figure 1 colour legend.
    """
    from ..framework.textplot import gantt_chart

    if not events:
        return "(empty trace)"
    rows: dict[str, list[tuple[float, float, str]]] = {
        resource: [] for resource in sorted({e.resource for e in events})
    }
    for event in events:
        rows[event.resource].append(
            (event.start, event.end, _GLYPHS.get(event.kind, "#"))
        )
    return gantt_chart(rows, width=width)
