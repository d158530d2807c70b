"""Figure 1: the paper's worked scheduling example, reproduced exactly.

Figure 1 defines the problem visually: two computing obstacles on the
main thread, one core obstacle on the background thread, four jobs, and
the schedules ExtJohnson (1c) and ExtJohnson+BF (1d) produce.  This bench
regenerates both schedules, asserts every interval the paper draws, and
emits the Gantt charts.
"""

from __future__ import annotations

from repro.core import (
    Interval,
    ext_johnson,
    ext_johnson_backfill,
    figure1_instance,
    trace_schedule,
)
from repro.telemetry import Tracer, render_gantt

from .common import emit


def gantt(schedule) -> str:
    tracer = Tracer()
    trace_schedule(tracer, schedule)
    return render_gantt(tracer.recorder.spans, legend=False)


def test_fig1_worked_example(benchmark):
    def build() -> str:
        instance = figure1_instance()
        plain = ext_johnson(instance)
        backfilled = ext_johnson_backfill(instance)
        plain.validate()
        backfilled.validate()

        # Figure 1c: ExtJohnson order 1,3,4,2 with job 2 pushed to the
        # end, makespan 13 (spills one unit past the iteration).
        assert plain.compression[1] == Interval(10.0, 12.0)
        assert plain.io[1] == Interval(12.0, 13.0)
        assert plain.io_makespan == 13.0

        # Figure 1d: backfilling slides job 2 into the [4,6] gap (R) and
        # [7,8] (B); the dump is fully concealed at makespan 12.
        assert backfilled.compression[1] == Interval(4.0, 6.0)
        assert backfilled.io[1] == Interval(7.0, 8.0)
        assert backfilled.io_makespan == 12.0

        lines = [
            "Figure 1c - ExtJohnson (io makespan 13.0, spills):",
            gantt(plain),
            "",
            "Figure 1d - ExtJohnson+BF (io makespan 12.0, concealed):",
            gantt(backfilled),
        ]
        return "\n".join(lines)

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("fig1_example", text)
