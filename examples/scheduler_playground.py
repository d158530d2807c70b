#!/usr/bin/env python
"""Scheduler playground: heuristics vs the exact ILP on random instances.

Generates a few random instances, solves each with the six Section 3.3
heuristics and the Appendix A ILP (HiGHS, 20 s limit), and prints the
optimality gaps — the small-scale counterpart of the paper's remark that
the ILP is exact but intractable at experiment sizes.

Run:  python examples/scheduler_playground.py
"""

import time

import numpy as np

from repro.core import (
    ALGORITHMS,
    Interval,
    Job,
    ProblemInstance,
    ilp_schedule,
)
from repro.framework import format_table


def random_instance(rng: np.random.Generator, num_jobs: int) -> ProblemInstance:
    length = 20.0

    def obstacles(count):
        points = np.sort(rng.uniform(0, length, size=2 * count))
        return tuple(
            Interval(float(points[2 * i]), float(points[2 * i + 1]))
            for i in range(count)
        )

    jobs = tuple(
        Job(i, float(rng.uniform(0.2, 2.5)), float(rng.uniform(0.2, 2.5)))
        for i in range(num_jobs)
    )
    return ProblemInstance(
        begin=0.0,
        end=length,
        jobs=jobs,
        main_obstacles=obstacles(2),
        background_obstacles=obstacles(2),
    )


def main() -> None:
    rng = np.random.default_rng(20240422)
    rows = []
    for trial in range(4):
        instance = random_instance(rng, num_jobs=5)
        t0 = time.time()
        ilp = ilp_schedule(instance, time_limit=20.0)
        ilp_time = time.time() - t0
        optimum = ilp.objective if ilp.status == "optimal" else None
        for name, algorithm in ALGORITHMS.items():
            t0 = time.time()
            schedule = algorithm(instance)
            elapsed = time.time() - t0
            gap = (
                f"{(schedule.io_makespan / optimum - 1) * 100:+.1f}%"
                if optimum
                else "n/a"
            )
            rows.append(
                (
                    f"#{trial}",
                    name,
                    f"{schedule.io_makespan:.3f}",
                    gap,
                    f"{elapsed * 1e3:.2f} ms",
                )
            )
        rows.append(
            (
                f"#{trial}",
                f"ILP ({ilp.status})",
                f"{optimum:.3f}" if optimum else "-",
                "+0.0%" if optimum else "-",
                f"{ilp_time * 1e3:.0f} ms",
            )
        )
    print(
        format_table(
            rows,
            headers=("instance", "algorithm", "makespan", "gap", "time"),
        )
    )
    print(
        "\nThe ILP is optimal but orders of magnitude slower; at the "
        "paper's 32-block instances it fails to finish (Section 5.2)."
    )


if __name__ == "__main__":
    main()
