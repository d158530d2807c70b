"""Benchmark harness: register cases, time them one at a time, report.

The paper never quotes an absolute time: every result is an overhead
relative to a baseline measured in the same run.  This package measures
the same way.  It turns the repo's figure scripts (and any future
scenario) into registered, timed, statistically summarized cases, runs
them serially so no case perturbs another's clock, and writes one
validated ``BENCH_*.json`` document whose medians CI divides by each
other (decode, encode, CRC32C, placement and cached-solve ratio gates).
Absolute trajectories across commits live in ``perf/results/``.

Layers:

* :mod:`~repro.bench.harness` — ``BenchCase``/``BenchSample``/
  ``BenchResult`` dataclasses, ``perf_counter`` timing with warmup and
  repeats, robust statistics (min/median/mean/stdev + IQR outlier
  flagging), and the host environment fingerprint.
* :mod:`~repro.bench.registry` — the ``@bench_case`` decorator, the
  shared :data:`~repro.bench.registry.REGISTRY`, and discovery of
  ``benchmarks/bench_*.py`` registration modules.
* :mod:`~repro.bench.runner` — serial execution with per-case wall
  budgets and failure isolation; emits ``bench.case`` telemetry spans.
* :mod:`~repro.bench.schema` — the versioned JSON document format with
  exhaustive validation and an atomic, validated write.

CLI: ``repro bench run|list`` (see ``repro bench --help``).
"""

from .harness import (
    BenchCase,
    BenchResult,
    BenchSample,
    BenchStats,
    BenchTimeout,
    environment_fingerprint,
    run_case,
    summarize,
)
from .registry import (
    REGISTRY,
    BenchRegistry,
    RegisteredCase,
    bench_case,
    discover_benchmarks,
)
from .runner import BenchReport, run_benchmarks, standalone_main
from .schema import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SchemaError,
    load_document,
    report_to_document,
    validate_document,
    write_document,
)

__all__ = [
    "BenchCase",
    "BenchSample",
    "BenchStats",
    "BenchResult",
    "BenchTimeout",
    "run_case",
    "summarize",
    "environment_fingerprint",
    "RegisteredCase",
    "BenchRegistry",
    "REGISTRY",
    "bench_case",
    "discover_benchmarks",
    "BenchReport",
    "run_benchmarks",
    "standalone_main",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SchemaError",
    "report_to_document",
    "validate_document",
    "write_document",
    "load_document",
]
