"""Service benchmarks: what memoization buys on the request path.

``test_solve_cold`` measures one full request through parse ->
admission -> dispatch queue -> solver, with the memo cache bypassed;
``test_solve_cached`` measures the identical request answered from the
cache.  The CI ``service-smoke`` job gates on the cached path being at
least an order of magnitude faster than the cold one — the headline
property of scheduling-as-a-service — and prints
``test_http_hit_roundtrip``, the same memo hit sent by a
``ServiceClient`` through a real server, beside it (no gate)::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py \\
        --benchmark-only --benchmark-json=BENCH_service.json

The workload is ``TwoListsGreedy`` on a randomized 12-job instance:
expensive enough that solver time dominates the request, the regime
memoization exists for.  Both tests share one module-scoped service so
the timed body is purely the request, not service construction.
"""

from __future__ import annotations

import numpy as np
import pytest

_ALGORITHM = "TwoListsGreedy"


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


@pytest.fixture(scope="module")
def service():
    """One long-lived service whose cache already holds the instance."""
    from repro.service import SchedulingService, ServiceConfig

    service = SchedulingService(
        ServiceConfig(workers=2, quota_rate=1e9, quota_burst=1e9)
    )
    status, body = service.solve(_request(cache=True))
    assert status == 200, body
    yield service
    service.shutdown()


def _request(cache: bool) -> dict:
    from repro.core import instance_json_dict

    request = {
        "instance": instance_json_dict(_build_instance(12)),
        "algorithm": _ALGORITHM,
    }
    if not cache:
        request["cache"] = False
    return request


def test_solve_cold(benchmark, service):
    """Full request path, memo cache bypassed: admission + dispatch +
    solver every time."""
    request = _request(cache=False)
    status, body = benchmark.pedantic(
        lambda: service.solve(dict(request)),
        rounds=5, warmup_rounds=1, iterations=1,
    )
    assert status == 200, body
    assert body["cache"] == "bypass"


def test_solve_cached(benchmark, service):
    """The identical request answered from the memo cache."""
    request = _request(cache=True)
    status, body = benchmark.pedantic(
        lambda: service.solve(dict(request)),
        rounds=9, warmup_rounds=3, iterations=1,
    )
    assert status == 200, body
    assert body["cache"] == "hit", body["cache"]


@pytest.fixture(scope="module")
def http_client(service):
    """A client of ``service`` served over HTTP from a thread."""
    from repro.service import ServiceClient
    from tests.service.conftest import serve_in_thread

    thread, port = serve_in_thread(service)
    client = ServiceClient("127.0.0.1", port, timeout=30.0)
    client.wait_healthy()
    yield client
    client.shutdown()
    client.close()
    thread.join(timeout=20.0)


def test_http_hit_roundtrip(benchmark, http_client):
    """A memo hit end to end: client encode, socket, server parse and
    key, cache lookup, reply bytes, client decode."""
    request = _request(cache=True)
    status, body = benchmark.pedantic(
        lambda: http_client.solve(request),
        rounds=200, warmup_rounds=20, iterations=1,
    )
    assert status == 200, body
    assert body["cache"] == "hit", body["cache"]
