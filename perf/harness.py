"""Shared plumbing of the repo benchmark: environment, clocks, statistics.

Everything here is workload-independent.  The workloads
(``perf/workloads``) only know how to set themselves up, run one
operation, and check their outputs; this module times them.

Timing is *calibrated*: the sandboxes this benchmark runs in drift by
10-30 % over tens of seconds (a pure CPU loop does), which would bury
any bound the benchmark sets.  Every timed operation is therefore
bracketed by a short fixed reference kernel, and its wall time is
divided by that kernel's slowdown relative to :data:`NOMINAL_KERNEL_S`.
A reported millisecond is a millisecond on a machine that runs the
kernel in the nominal time; the raw walls and the speed factor are kept
next to every result (``perf/README.md``, "Calibrated time").
"""

from __future__ import annotations

import atexit
import json
import os
import platform
import resource
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERF = ROOT / "perf"
WORK_ROOT = PERF / ".work"
RESULTS = PERF / "results"

#: Variables that silently change what the program does; a benchmark run
#: must not inherit them from the caller's shell.
HYGIENE_VARS = (
    "REPRO_CODEC_BACKEND",
    "REPRO_SERVICE_CRASH",
    "REPRO_SERVICE_CRASH_TOKEN",
    "REPRO_BENCH_DIR",
)

#: How often a workload's set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: What the reference kernel takes on the machine the first baseline was
#: recorded on while it was quiet.  Only a scale: changing it rescales
#: every calibrated time by the same factor.
NOMINAL_KERNEL_S = 0.010


def load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def prepare_environment() -> float:
    """Make ``repro`` importable from the checkout and import it.

    Returns the seconds the imports took (part of ``setup_s``).  Exits
    non-zero when the checkout has no program to measure.
    """
    if not (SRC / "repro").is_dir():
        raise SystemExit(
            f"perf: no program to measure: {SRC / 'repro'} is missing"
        )
    for name in HYGIENE_VARS:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    # The service workloads start ``python -m repro serve`` as a child.
    os.environ["PYTHONPATH"] = str(SRC)
    t0 = time.perf_counter()
    import repro.durability.verify  # noqa: F401
    import repro.engines  # noqa: F401
    import repro.service  # noqa: F401

    return time.perf_counter() - t0


def make_work_dir() -> Path:
    """A private scratch directory inside the checkout, removed at exit.

    ``TMPDIR`` points into it so neither the program nor its children
    write outside the checkout.
    """
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = WORK_ROOT / f"{os.getpid()}-{secrets.token_hex(4)}"
    work.mkdir()
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    atexit.register(remove_work_dir, work)
    return work


def remove_work_dir(work: Path) -> None:
    """Drop a run's scratch directory (and the parent once it is empty)."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def stop_resource_tracker() -> None:
    """End multiprocessing's tracker child and wait for it.

    The pool plane's shared memory starts it; left alone it outlives
    this process by a moment, and a run must leave no process behind.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def fingerprint(seed: int) -> dict:
    """Where and on what a result was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": sha or "unknown",
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def p50(values) -> float:
    return float(statistics.median(values))


def iqr_share(values) -> float:
    """Quartile distance as a share of the median (the driver's spread)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# calibrated timing
# ----------------------------------------------------------------------
class Calibrator:
    """The reference kernel: interpreter loop + numpy passes + zlib.

    The mix mirrors what the program spends its time on, so that
    whatever slows the machine slows the kernel by about as much.
    """

    def __init__(self) -> None:
        self._field = np.random.default_rng(0).standard_normal(100_000)
        self.samples: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        grid = np.rint(self._field * 1000.0).astype(np.int64)
        deltas = np.diff(grid)
        np.bincount((deltas & 255).astype(np.int64))
        zlib.compress(deltas.astype(np.int16).tobytes(), 1)
        return time.perf_counter() - t0

    def __call__(self) -> float:
        """Median of three kernel runs (one run can hit a hiccup)."""
        elapsed = p50([self._kernel() for _ in range(3)])
        self.samples.append(elapsed)
        return elapsed

    @property
    def speed_factor(self) -> float:
        """Median slowdown of this run relative to the nominal machine."""
        return p50(self.samples) / NOMINAL_KERNEL_S


@dataclass
class Timed:
    """One timed operation (or slice of operations)."""

    wall_s: float
    #: Kernel slowdown around this operation (1.0 = nominal machine).
    factor: float
    #: Per-request latencies inside a slice; None when the operation is
    #: the sample itself.
    latencies_s: list[float] | None = None

    @property
    def calibrated_s(self) -> float:
        return self.wall_s / self.factor


def time_call(fn, cal: Calibrator) -> Timed:
    """Time one call, bracketed by the reference kernel."""
    before = cal()
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    after = cal()
    return Timed(wall, (before + after) / 2 / NOMINAL_KERNEL_S)


def timed_loop(
    op, seconds: float, cal: Calibrator, min_ops: int = 3, rearm=None
) -> list[Timed]:
    """Run ``op()`` until ``seconds`` elapsed; kernel between the calls.

    ``op`` returns None, or the list of request latencies of one slice.
    ``rearm()`` runs untimed after every operation.
    """
    samples: list[Timed] = []
    deadline = time.perf_counter() + seconds
    before = cal()
    while True:
        t0 = time.perf_counter()
        latencies = op()
        wall = time.perf_counter() - t0
        if rearm is not None:
            rearm()
        after = cal()
        samples.append(
            Timed(
                wall, (before + after) / 2 / NOMINAL_KERNEL_S, latencies
            )
        )
        before = after
        if time.perf_counter() >= deadline and len(samples) >= min_ops:
            return samples


def op_times(samples: list[Timed], calibrated: bool = True) -> list[float]:
    """Per-operation seconds of a timed loop (requests inside slices)."""
    out: list[float] = []
    for s in samples:
        scale = s.factor if calibrated else 1.0
        if s.latencies_s is None:
            out.append(s.wall_s / scale)
        else:
            out.extend(lat / scale for lat in s.latencies_s)
    return out


def ops_per_second(samples: list[Timed]) -> float:
    ops = sum(
        1 if s.latencies_s is None else len(s.latencies_s) for s in samples
    )
    return ops / sum(s.calibrated_s for s in samples)
