"""A scheduling service served over HTTP from a thread of the test."""

import threading

import pytest

from repro.service import (
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    ServiceUnavailableError,
    serve_forever,
)


def serve_in_thread(service):
    """Serve ``service`` on an ephemeral port; return (thread, port)."""
    bound = {}
    ready = threading.Event()

    def on_bound(host, port):
        bound["port"] = port
        ready.set()

    thread = threading.Thread(
        target=serve_forever,
        args=(service,),
        kwargs={"port": 0, "on_bound": on_bound},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10.0), "server never bound"
    return thread, bound["port"]


@pytest.fixture
def running_server():
    """A service on an ephemeral port, torn down via /shutdown."""
    service = SchedulingService(
        ServiceConfig(workers=2, quota_rate=0.0, quota_burst=50.0)
    )
    thread, port = serve_in_thread(service)
    client = ServiceClient("127.0.0.1", port, timeout=30.0)
    client.wait_healthy()
    yield client, service
    try:
        client.shutdown()
    except ServiceUnavailableError:
        pass  # the test already shut it down
    client.close()
    thread.join(timeout=20.0)
    assert not thread.is_alive(), "server did not drain and exit"
