"""repro: reproduction of "Concealing Compression-accelerated I/O for HPC
Applications through In Situ Task Scheduling" (EuroSys '24).

Public API tour:

* :mod:`repro.core` — the scheduling contribution: the two-machine
  flow-shop model with obstacles, the six heuristics, the exact ILP, and
  the intra-node I/O balancer.
* :mod:`repro.compression` — the SZ-style error-bounded lossy compressor
  plus the paper's three runtime designs (fine-grained blocking,
  compressed data buffer, shared Huffman tree).
* :mod:`repro.simulator` — noise models, schedule replay, virtual clock,
  cluster topology, Gantt traces.
* :mod:`repro.io` — write-time model, simulated parallel filesystem, the
  shared-file container with overflow handling, async background writes.
* :mod:`repro.apps` — Nyx-like and WarpX-like application models.
* :mod:`repro.framework` — the end-to-end system and the three evaluated
  solutions (baseline / async-I/O-only / ours).
* :mod:`repro.telemetry` — tracing and metrics: spans, counters, JSON-lines
  traces, ASCII Gantt rendering.
* :mod:`repro.resilience` — fault injection (stalls, transient write
  errors, bandwidth collapse, compression failures, stragglers), retry
  policies, the per-campaign resilience report and supervisor tally.
* :mod:`repro.engines` — the one `ExecutionEngine` class and the data
  planes an engine name picks: modelled only (``sim``), or a real
  process pool that overlaps compression with I/O on real cores.
"""

from . import (
    apps,
    compression,
    core,
    engines,
    framework,
    io,
    resilience,
    simulator,
    telemetry,
)

__version__ = "1.0.0"

__all__ = [
    "core",
    "compression",
    "simulator",
    "io",
    "apps",
    "framework",
    "telemetry",
    "resilience",
    "engines",
    "__version__",
]
