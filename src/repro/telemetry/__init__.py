"""Lightweight tracing + metrics for the scheduling/replay hot path.

Every layer of the reproduction emits *spans* (named intervals on a
machine's timeline), *events* (instantaneous occurrences), and
*counters/gauges* through a :class:`Tracer`.  The default everywhere is
the shared no-op :data:`NULL_TRACER`, so tracing costs nothing unless a
recording :class:`Tracer` is passed in (e.g. via ``--trace-out`` on the
CLI).  Recorded traces export as JSON lines and render as ASCII Gantt
charts via :func:`render_gantt`.

Span-name vocabulary, mapped to the paper's sections:

======================  ====================================================
span name               meaning (paper section)
======================  ====================================================
``compute``             application task on the main thread — the yellow
                        Y-blocks whose gaps the scheduler fills (S3.1)
``core``                application core task on the background thread —
                        the green G-blocks (S3.1)
``compress.planned``    a compression task where the scheduler placed it
                        (S3.2's R tasks, planned positions)
``compress.actual``     the same task where the replay actually ran it
                        under the sequential-conflict rule (S5.4.1)
``write.planned``       an I/O task's planned placement (S3.2's B tasks)
``write.actual``        the I/O task's replayed execution (S5.4.1)
``write.overflow``      the unscheduled trailing write absorbing blocks
                        that compressed worse than predicted (S4.4)
``solve``               one scheduling-algorithm run (S3.3 / Appendix A)
``dump``                one rank's whole dump pipeline: plan, schedule,
                        replay (S4.4); attrs carry prediction errors
``iteration``           one campaign iteration across all ranks (S5.4)
``codec.quantize``      prequantize + Lorenzo + code mapping (S2.2)
``codec.encode``        Huffman encoding, native or shared tree (S4.3)
``codec.lossless``      the trailing zlib pass (S2.2)
``fs.write``            event: one simulated filesystem write (S4.2)
======================  ====================================================

Timebases: spans on a ``machine`` ("main"/"background") use the
*simulated* clock of their iteration; machine-less spans (``solve``,
``codec.*``, ``dump.schedule``) are wall-clock ``time.perf_counter``
measurements.
"""

from .gantt import render_gantt
from .metrics import Counter, Gauge
from .recorder import EventRecord, Recorder, SpanRecord, read_jsonl
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Recorder",
    "SpanRecord",
    "EventRecord",
    "read_jsonl",
    "Counter",
    "Gauge",
    "render_gantt",
]
