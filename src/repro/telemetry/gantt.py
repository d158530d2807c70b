"""Render recorded spans as an ASCII Gantt chart.

The textual equivalent of the paper's Figure 1, but driven by telemetry
spans instead of a :class:`~repro.core.model.Schedule`: any set of spans
that carry a ``machine`` (timeline row) renders, so the same function
draws planned schedules, replayed executions, and whole traced dumps
loaded back from a JSON-lines file.

Glyphs follow the Figure 1 colour legend: application compute tasks
``Y``, core/background tasks ``G``, compression ``R``, writes ``B``,
Section 4.4 overflow writes ``O``.
"""

from __future__ import annotations

from collections.abc import Iterable

from .recorder import SpanRecord

__all__ = ["render_gantt"]

#: Exact span-name glyphs, consulted before the prefix table.
_NAME_GLYPHS = {
    "compute": "Y",
    "core": "G",
    "write.overflow": "O",
}

#: Glyphs by the span name's first dotted segment.
_PREFIX_GLYPHS = {
    "compute": "Y",
    "core": "G",
    "compress": "R",
    "write": "B",
}

_LEGEND = "Y=compute  G=core  R=compression  B=write  O=overflow"


def _glyph(name: str) -> str:
    exact = _NAME_GLYPHS.get(name)
    if exact is not None:
        return exact
    return _PREFIX_GLYPHS.get(name.split(".", 1)[0], "#")


def render_gantt(
    spans: Iterable[SpanRecord],
    width: int = 72,
    legend: bool = True,
) -> str:
    """Draw every span that names a ``machine``, one row per machine.

    Spans are drawn in record order with their own glyph (later spans
    overwrite earlier ones where they overlap) over a shared time axis
    labelled with the global extremes; machines are sorted so
    ``background`` and ``main`` rows land in a stable order.  Spans with
    an empty ``machine`` (pipeline timings like ``dump.schedule``) are
    skipped — they live on the wall clock, not the simulated timeline.
    """
    rows: dict[str, list[SpanRecord]] = {}
    for span in spans:
        if span.machine:
            rows.setdefault(span.machine, []).append(span)
    if not rows:
        return "(no machine spans)"
    t0 = min(s.t0 for row in rows.values() for s in row)
    t1 = max(s.t1 for row in rows.values() for s in row)
    scale = (width - 1) / max(t1 - t0, 1e-12)

    pad = max(len(name) for name in rows) + 1
    lines = []
    for name in sorted(rows):
        cells = [" "] * width
        for span in rows[name]:
            lo = int((span.t0 - t0) * scale)
            hi = max(lo + 1, int((span.t1 - t0) * scale))
            for x in range(lo, min(hi, width)):
                cells[x] = _glyph(span.name)
        lines.append(f"{name.ljust(pad)}|{''.join(cells)}|")
    lines.append(
        f"{' ' * pad}|{f't={t0:.2f}'.ljust(width - 10)}"
        f"{f't={t1:.2f}'.rjust(10)}|"
    )
    if legend:
        lines.append(" " * (pad + 1) + _LEGEND)
    return "\n".join(lines)
