"""Suite execution: one case at a time, with failure isolation.

:func:`run_benchmarks` executes a selection of registered cases and
returns a :class:`BenchReport`.  Guarantees:

* **One case at a time** — cases run in order in this process, so a
  median is never inflated by another case sharing the host's cores and
  ratios between cases of one report are comparable.
* **Failure isolation** — a case that raises is reported as ``failed``
  (with its traceback) and the remaining cases still run.
* **Per-case wall budgets** — each case runs under a ``SIGALRM``
  deadline covering warmup + all repeats; overruns are reported as
  ``timeout``.  The deadline interrupts Python-level work (including
  ``time.sleep``), not a C extension that never re-enters the
  interpreter.

Every case emits a ``bench.case`` span through the given
:class:`repro.telemetry` tracer (name/group/status/median attached), so
``--trace-out`` shows the suite's timeline like any other run.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.telemetry import NULL_TRACER, NullTracer, Tracer

from .harness import BenchResult, BenchTimeout, environment_fingerprint, run_case
from .registry import REGISTRY, RegisteredCase

__all__ = ["BenchReport", "run_benchmarks", "standalone_main"]


@dataclass(frozen=True)
class BenchReport:
    """All results of one suite run plus the host fingerprint."""

    results: tuple[BenchResult, ...]
    environment: dict[str, object] = field(default_factory=dict)
    quick: bool = False
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failed(self) -> tuple[BenchResult, ...]:
        return tuple(r for r in self.results if not r.ok)


@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`BenchTimeout` inside the block after ``seconds``.

    No-op when ``seconds`` is falsy, off the main thread, or on a
    platform without ``SIGALRM``.
    """
    usable = (
        seconds
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise BenchTimeout(f"exceeded wall budget of {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute(case: RegisteredCase, quick: bool) -> BenchResult:
    """Run one case under its deadline, mapping errors to statuses."""
    bench = case.resolve(quick=quick)
    try:
        with _deadline(bench.timeout_s):
            return run_case(bench)
    except BenchTimeout as exc:
        return BenchResult(
            name=case.name,
            group=case.group,
            status="timeout",
            warmup=bench.warmup,
            repeats=bench.repeats,
            error=str(exc),
        )
    except Exception:  # noqa: BLE001 — isolation is the contract
        return BenchResult(
            name=case.name,
            group=case.group,
            status="failed",
            warmup=bench.warmup,
            repeats=bench.repeats,
            error=traceback.format_exc(limit=8),
        )


def _span(tracer: NullTracer | Tracer, result: BenchResult, t0: float, t1: float) -> None:
    tracer.span(
        "bench.case",
        machine="bench",
        t0=t0,
        t1=t1,
        case=result.name,
        group=result.group,
        status=result.status,
        median_s=None if result.stats is None else result.stats.median_s,
    )
    tracer.counter(f"bench.{result.status}").inc()


def run_benchmarks(
    cases: list[RegisteredCase],
    quick: bool = False,
    tracer: NullTracer | Tracer = NULL_TRACER,
) -> BenchReport:
    """Run the cases in order, one at a time, in this process."""
    started = time.perf_counter()
    results = []
    for case in cases:
        t0 = time.perf_counter()
        result = _execute(case, quick)
        _span(tracer, result, t0, time.perf_counter())
        results.append(result)
    return BenchReport(
        results=tuple(results),
        environment=environment_fingerprint(),
        quick=quick,
        elapsed_s=time.perf_counter() - started,
    )


def standalone_main(argv: list[str] | None = None) -> int:
    """Entry point for ``python benchmarks/bench_*.py``.

    Runs whatever cases the executing script registered and prints
    their summary, so every figure script doubles as a self-contained
    benchmark without the ``repro bench`` CLI.
    """
    import argparse

    from repro.framework.report import format_table

    parser = argparse.ArgumentParser(
        description="run this script's registered bench cases"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized quick variants"
    )
    parser.add_argument(
        "--filter", default=None, help="substring over 'group/name'"
    )
    args = parser.parse_args(argv)
    cases = REGISTRY.select(quick=args.quick, filter=args.filter)
    if not cases:
        print("no bench cases registered")
        return 1
    report = run_benchmarks(cases, quick=args.quick)
    rows = [
        (
            r.name,
            r.status,
            "-" if r.stats is None else f"{r.stats.median_s * 1e3:.3f} ms",
            "-" if r.stats is None else f"{r.stats.mean_s * 1e3:.3f} ms",
        )
        for r in report.results
    ]
    print(format_table(rows, headers=("case", "status", "median", "mean")))
    for result in report.failed:
        print(f"{result.status}: {result.name}\n{result.error}")
    return 0 if report.ok else 1
