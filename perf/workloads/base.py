"""What the harness needs from a workload."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from harness import Calibrator, op_times, p50, timed_loop
from spans import SpanRecorder, StageTable


@dataclass
class CheckResult:
    """Outcome of the untimed output checks."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        """Count one checked item; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


@dataclass
class TraceResult:
    """What a traced run produced."""

    #: ``<layer>.<metric>`` -> value, for the metrics this workload
    #: resolves; every other per-layer metric reads 0 on this workload.
    metrics: dict[str, float]
    recorder: SpanRecorder
    #: None when the operation is a single opaque call (pool dump).
    table: StageTable | None = None


class Workload:
    """One set of inputs the benchmark runs.

    The harness calls ``setup()`` several times (``release()`` in
    between, untimed), then ``op()`` once to warm up, then ``op()`` in
    the timed loop, then ``check()``; ``release()`` runs on every exit
    path.  ``trace()`` replaces the timed loop in a traced run.
    """

    name = ""

    def __init__(self, seed: int, work: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.work = work
        self.smoke = smoke

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> list[float] | None:
        """One timed operation; a service slice returns its latencies."""
        raise NotImplementedError

    def rearm(self) -> None:
        """Untimed hook after every timed operation."""

    def io_bytes_per_op(self) -> float:
        """Bytes one operation moves to or from storage or the wire."""
        raise NotImplementedError

    def check(self) -> CheckResult:
        raise NotImplementedError

    def trace(self, seconds: float, cal: Calibrator) -> TraceResult:
        raise NotImplementedError

    def untraced_p50(self, seconds: float, cal: Calibrator) -> float:
        """Raw median seconds of the operation over a short untraced
        loop: what a traced run's overhead is measured against."""
        samples = timed_loop(self.op, seconds, cal, min_ops=2)
        return p50(op_times(samples, calibrated=False))

    def release(self) -> None:
        """Stop what ``setup()`` started (idempotent, never raises for
        an already-released workload)."""
