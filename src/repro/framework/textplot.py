"""Text line charts, so benches regenerate *figures*, not only tables.

Minimal dependency-free plotting: each named series is drawn with its own
glyph on a character grid with labelled y-extremes and x-ticks.  Used by
the figure benches next to their numeric tables.  (Timelines are
:func:`repro.telemetry.render_gantt`'s.)
"""

from __future__ import annotations

__all__ = ["line_chart"]

_GLYPHS = "ox+*#@%&"


def line_chart(
    series: dict[str, list[tuple[float, float]]],
    width: int = 60,
    height: int = 14,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render ``{name: [(x, y), ...]}`` as an ASCII chart.

    Points are plotted (not interpolated); series are distinguished by
    glyph, listed in a legend.  Raises on empty input.
    """
    if not series or all(not pts for pts in series.values()):
        raise ValueError("nothing to plot")
    points = [p for pts in series.values() for p in pts]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, pts) in enumerate(series.items()):
        glyph = _GLYPHS[index % len(_GLYPHS)]
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = glyph

    y_hi_text = f"{y_hi:.3g}"
    y_lo_text = f"{y_lo:.3g}"
    margin = max(len(y_hi_text), len(y_lo_text), len(y_label)) + 1
    lines = []
    if y_label:
        lines.append(f"{y_label}")
    for r, row in enumerate(grid):
        if r == 0:
            prefix = y_hi_text.rjust(margin)
        elif r == height - 1:
            prefix = y_lo_text.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|{''.join(row)}")
    axis = " " * margin + "+" + "-" * width
    lines.append(axis)
    x_ticks = (
        " " * (margin + 1)
        + f"{x_lo:.3g}".ljust(width - 10)
        + f"{x_hi:.3g}".rjust(10)
    )
    lines.append(x_ticks)
    if x_label:
        lines.append(" " * (margin + 1) + x_label.center(width))
    legend = "  ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append(" " * (margin + 1) + legend)
    return "\n".join(lines)
