"""Service benchmarks: what memoization buys on the request path.

Registers the cold and cached solve paths of the scheduling service
with ``repro bench`` (group ``service``)::

    PYTHONPATH=src python -m repro bench run --filter service --quick

``service.solve_cold`` measures one full request through parse ->
admission -> dispatch queue -> solver, with the memo cache bypassed;
``service.solve_cached`` measures the identical request answered from
the cache.  The CI ``service-smoke`` job gates on the cached path being
at least an order of magnitude faster than the cold one — the headline
property of scheduling-as-a-service.

The workload is ``TwoListsGreedy`` on a randomized instance: expensive
enough that solver time dominates the request, the regime memoization
exists for.  Both cases share one module-level service (built on first
use) so the timed body is purely the request, not service construction.
"""

from __future__ import annotations

import numpy as np

from repro.bench import bench_case

_ALGORITHM = "TwoListsGreedy"
_STATE: dict[int, dict] = {}


def _build_instance(jobs: int):
    from repro.core import Interval, Job, ProblemInstance

    rng = np.random.default_rng(61)
    length = 30.0

    def obstacles(count):
        points = np.sort(rng.uniform(0.0, length, size=2 * count))
        return tuple(
            Interval(float(points[2 * i]), float(points[2 * i + 1]))
            for i in range(count)
        )

    return ProblemInstance(
        begin=0.0,
        end=length,
        jobs=tuple(
            Job(
                i,
                float(rng.uniform(0.2, 2.0)),
                float(rng.uniform(0.2, 2.0)),
            )
            for i in range(jobs)
        ),
        main_obstacles=obstacles(3),
        background_obstacles=obstacles(2),
    )


def _state(jobs: int) -> dict:
    """One long-lived service plus prebuilt payloads, per instance size."""
    if jobs not in _STATE:
        from repro.core import instance_json_dict
        from repro.service import SchedulingService, ServiceConfig

        service = SchedulingService(
            ServiceConfig(
                workers=2,
                quota_rate=1e9,
                quota_burst=1e9,
            )
        )
        instance_doc = instance_json_dict(_build_instance(jobs))
        state = {
            "service": service,
            "cold": {
                "instance": instance_doc,
                "algorithm": _ALGORITHM,
                "cache": False,
            },
            "warm": {"instance": instance_doc, "algorithm": _ALGORITHM},
        }
        # Prime the cache so every ``warm`` request is a guaranteed hit.
        status, body = service.solve(dict(state["warm"]))
        assert status == 200, body
        _STATE[jobs] = state
    return _STATE[jobs]


@bench_case(
    "service.solve_cold",
    group="service",
    params={"jobs": 12},
    quick={"jobs": 12},
    warmup=1,
    repeats=5,
    timeout_s=120.0,
)
def bench_solve_cold(jobs=12):
    """Full request path, memo cache bypassed: admission + dispatch +
    solver every time."""
    state = _state(jobs)
    status, body = state["service"].solve(dict(state["cold"]))
    assert status == 200, body
    assert body["cache"] == "bypass"


@bench_case(
    "service.solve_cached",
    group="service",
    params={"jobs": 12},
    quick={"jobs": 12},
    warmup=3,
    repeats=9,
    timeout_s=60.0,
)
def bench_solve_cached(jobs=12):
    """The identical request answered from the memo cache."""
    state = _state(jobs)
    status, body = state["service"].solve(dict(state["warm"]))
    assert status == 200, body
    assert body["cache"] == "hit", body["cache"]
