"""Table 1: iteration duration achieved by each scheduling algorithm.

Paper setup: Nyx at 1024^3 over 16 GPUs, 8.39 MB fine-grained blocks, 32
blocks per process, instances sampled at three run stages, actual (not
predicted) task durations.  Expected shape: ExtJohnson+BF achieves the
best duration/overhead trade-off; the plain generation order is worst;
the greedies land in between at much higher scheduling cost; the ILP
cannot finish at this size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import Stage
from repro.apps.workloads import generate_profile
from repro.core import (
    ALGORITHMS,
    Job,
    ProblemInstance,
    solve,
)
from repro.framework import format_table

from .common import emit

_ITERATION_S = 4.0
_NUM_BLOCKS = 32
_BLOCK_BYTES = 8.39e6
_COMPRESSION_BPS = 190e6
_IO_BPS = 175e6
_SPREADS = {Stage.BEGINNING: 2.0, Stage.MIDDLE: 8.0, Stage.END: 20.0}


def table1_instance(stage: Stage, seed: int) -> ProblemInstance:
    """A measured-durations instance like the paper's Table 1 samples."""
    rng = np.random.default_rng((seed, list(Stage).index(stage)))
    profile = generate_profile(
        length=_ITERATION_S,
        num_main_tasks=9,
        main_busy_fraction=0.68,
        num_background_tasks=4,
        background_busy_fraction=0.35,
        rng=rng,
    )
    spread = _SPREADS[stage]
    log_span = 0.5 * np.log(spread)
    ratios = 16.0 * np.exp(
        np.clip(rng.normal(0, 1, _NUM_BLOCKS), -2, 2) / 2 * log_span
    )
    jobs = []
    for j in range(_NUM_BLOCKS):
        compression = (_BLOCK_BYTES / _COMPRESSION_BPS) * float(
            rng.normal(1.0, 0.05)
        )
        io = 0.0015 + (_BLOCK_BYTES / ratios[j]) / _IO_BPS
        jobs.append(Job(j, max(compression, 1e-4), max(io, 1e-4)))
    return ProblemInstance(
        begin=0.0,
        end=_ITERATION_S,
        jobs=tuple(jobs),
        main_obstacles=profile.main_obstacles,
        background_obstacles=profile.background_obstacles,
    )


_INSTANCES = [
    table1_instance(stage, seed)
    for stage in Stage
    for seed in (1, 2)
]


_EVAL_CACHE: dict[str, tuple[float, float]] = {}


def _evaluate(name: str, cache: bool = True) -> tuple[float, float]:
    """(mean iteration duration, total scheduling time) over samples.

    Runs through the :func:`repro.core.solve` facade so the benchmark
    measures exactly what the framework's hot path executes.
    """
    if cache and name in _EVAL_CACHE:
        return _EVAL_CACHE[name]
    durations = []
    elapsed = 0.0
    for instance in _INSTANCES:
        result = solve(instance, name)
        durations.append(result.schedule.overall_time)
        elapsed += result.wall_time
    outcome = (float(np.mean(durations)), elapsed)
    if cache:
        _EVAL_CACHE[name] = outcome
    return outcome


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_table1_schedulers(benchmark, name):
    duration, _ = benchmark.pedantic(
        lambda: _evaluate(name), rounds=1, iterations=1
    )
    benchmark.extra_info["iteration_duration_s"] = duration
    assert duration >= _ITERATION_S  # can never beat the computation


def test_table1_report(benchmark):
    def build() -> str:
        rows = []
        results = {}
        for name in ALGORITHMS:
            duration, sched_time = _evaluate(name)
            results[name] = duration
            rows.append(
                (name, f"{duration:.3f}", f"{sched_time * 1e3:.1f} ms")
            )
        ilp = solve(_INSTANCES[0], "ILP", time_limit=5.0)
        rows.append(
            (
                "ILP (Appendix A)",
                "-" if ilp.schedule is None else f"{ilp.makespan:.3f}",
                f"{ilp.status} @ 5s limit, "
                f"{ilp.detail['num_variables']} vars / "
                f"{ilp.detail['num_constraints']} rows",
            )
        )
        text = format_table(
            rows,
            headers=(
                "Algorithm",
                "Iteration duration (s)",
                "Scheduling cost",
            ),
        )
        # Shape checks from the paper's Table 1.
        assert (
            results["ExtJohnson+BF"]
            <= min(
                results["ExtJohnson"],
                results["GenerationListSchedule"],
                results["GenerationListSchedule+BF"],
            )
            + 1e-9
        )
        assert (
            results["GenerationListSchedule"]
            >= max(results["ExtJohnson+BF"], results["TwoListsGreedy"]) - 1e-9
        )
        return text

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("table1_schedulers", text)
