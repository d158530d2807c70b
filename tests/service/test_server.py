"""The HTTP layer over localhost: routes, errors, graceful shutdown,
connection lifecycle, and the request path encoding each request once."""

import http.client
import json
import socket
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.protocol as protocol
from repro.core import (
    instance_from_json,
    instance_json_dict,
    list_algorithms,
    schedule_to_json,
    solve,
)
from repro.durability import canonical_json, encode_record
from repro.durability.checksum import crc32c_hex
from repro.service import (
    BadRequestError,
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    ServiceUnavailableError,
    Watchdog,
    parse_solve_payload,
    solution_json_dict,
)
from tests.conftest import figure1_instance, random_instance
from tests.service.conftest import serve_in_thread


def solve_payload(**extra):
    payload = {"instance": instance_json_dict(figure1_instance())}
    payload.update(extra)
    return payload


class TestRoutes:
    def test_health(self, running_server):
        client, _ = running_server
        status, body = client.health()
        assert (status, body) == (200, {"ok": True, "draining": False})

    def test_solve_cold_then_cached(self, running_server):
        client, _ = running_server
        status1, body1 = client.solve(solve_payload())
        status2, body2 = client.solve(solve_payload())
        assert (status1, body1["cache"]) == (200, "miss")
        assert (status2, body2["cache"]) == (200, "hit")
        assert body1["solution"] == body2["solution"]
        assert body1["solution"]["makespan"] == pytest.approx(12.0)

    def test_status_counters_track_requests(self, running_server):
        client, _ = running_server
        client.solve(solve_payload())
        client.solve(solve_payload())
        status, body = client.status()
        assert status == 200
        assert body["requests"]["solve"] == 2
        assert body["requests"]["cache_hits"] == 1
        assert body["cache"]["hits"] == 1
        assert body["admission"]["tenants"]["default"]["admitted"] == 1

    def test_campaign_over_http(self, running_server):
        client, _ = running_server
        status, body = client.campaign(
            {"app": "nyx", "nodes": 2, "ppn": 2, "iterations": 2}
        )
        assert status == 200
        assert body["campaign"]["iterations"] == 2

    def test_solution_schedule_revalidates_client_side(
        self, running_server
    ):
        """The wire solution is complete: the client can rebuild and
        validate the schedule locally."""
        import json

        from repro.core import schedule_from_json

        client, _ = running_server
        _, body = client.solve(solve_payload())
        schedule = schedule_from_json(
            json.dumps(body["solution"]["schedule"])
        )
        schedule.validate()


class TestErrors:
    def test_not_found_is_structured(self, running_server):
        client, _ = running_server
        status, body = client._request("GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_bad_json_body_is_a_400(self, running_server):
        client, _ = running_server
        import http.client

        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=10.0
        )
        try:
            conn.request(
                "POST",
                "/solve",
                body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_bad_instance_is_a_400(self, running_server):
        client, _ = running_server
        status, body = client.solve({"instance": {"bogus": 1}})
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_unreachable_server_raises(self):
        client = ServiceClient("127.0.0.1", 1, timeout=0.5)
        with pytest.raises(ServiceUnavailableError, match="unreachable"):
            client.health()


class TestShutdown:
    def test_shutdown_drains_and_exits(self, running_server):
        client, service = running_server
        client.solve(solve_payload())
        status, body = client.shutdown()
        assert (status, body.get("draining")) == (200, True)
        # The fixture asserts the serve thread actually exits; here,
        # assert the core drained: new work is refused.
        import time

        for _ in range(100):
            if service._draining:
                break
            time.sleep(0.05)
        assert service.health_payload()["draining"] is True


class TestIdempotencyHeader:
    def test_header_reaches_the_service_payload(self, running_server):
        """``X-Idempotency-Key`` is injected into the payload, so both
        requests settle under the same ledger/coalescing key — and the
        injected field never trips request validation."""
        import http.client
        import json as json_module

        client, service = running_server
        recorded = []
        original = service.begin_solve

        def spy(payload, **kwargs):
            recorded.append(payload.get("idempotency_key"))
            return original(payload, **kwargs)

        service.begin_solve = spy
        try:
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=10.0
            )
            try:
                conn.request(
                    "POST",
                    "/solve",
                    body=json_module.dumps(solve_payload()),
                    headers={
                        "Content-Type": "application/json",
                        "X-Idempotency-Key": "retry-attempt-key",
                    },
                )
                assert conn.getresponse().status == 200
            finally:
                conn.close()
        finally:
            service.begin_solve = original
        assert recorded == ["retry-attempt-key"]


def raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw request bytes; return everything read until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestConnectionLifecycle:
    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n",
            b"GET /health HTTP/1.0\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_last_request_gets_one_reply_then_eof(
        self, running_server, request_head
    ):
        client, _ = running_server
        reply = raw_exchange(client.port, request_head + b"\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert reply.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close" in head
        assert json.loads(body)["ok"] is True

    def test_keep_alive_replies_do_not_say_close(self, running_server):
        client, _ = running_server
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                assert response.getheader("Connection") is None
                assert not response.will_close
        finally:
            conn.close()

    def test_drain_closes_an_idle_keep_alive_connection(self):
        service = SchedulingService(ServiceConfig(workers=1))
        thread, port = serve_in_thread(service)
        idle = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
        try:
            idle.request("GET", "/health")
            response = idle.getresponse()
            response.read()
            assert not response.will_close  # open, and now idle
            with ServiceClient("127.0.0.1", port) as other:
                assert other.shutdown()[0] == 200
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "an idle connection held the drain"
            assert idle.sock.recv(1) == b""
        finally:
            idle.close()

    def test_watchdog_probes_leave_no_connection_open(self, running_server):
        client, _ = running_server
        watchdog = Watchdog(["unused"], host=client.host, port=client.port)
        for _ in range(20):
            assert watchdog._probe_health()
        deadline = time.monotonic() + 5.0
        while True:
            status, body = client.status()
            # The one connection left is the one asking.
            if body["connections"]["open"] <= 1:
                break
            assert time.monotonic() < deadline, body["connections"]
            time.sleep(0.02)
        assert body["connections"]["accepted"] >= 21


# ----------------------------------------------------------------------
# Each request encoded once: the one-pass forms give the two-pass bytes.
# ----------------------------------------------------------------------

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def two_pass_record(seq: int, type: str, data: dict) -> bytes:
    """``encode_record`` as it was: encode, add the crc, encode again."""
    record = {"seq": seq, "type": type, "data": data}
    record["crc"] = crc32c_hex(canonical_json(record).encode())
    return (canonical_json(record) + "\n").encode()


@given(
    seq=st.integers(min_value=0),
    type=st.text(max_size=8),
    data=st.dictionaries(st.text(max_size=8), _json_values, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_encode_record_matches_the_two_pass_form(seq, type, data):
    assert encode_record(seq, type, data) == two_pass_record(seq, type, data)


#: Where a malformed payload differs from a good one.  An int indexes a
#: list, a str a dict; the last step is replaced or deleted.
_PATHS = [
    ("instance",),
    ("algorithm",),
    ("engine",),
    ("time_limit",),
    ("deadline_s",),
    ("priority",),
    ("tenant",),
    ("cache",),
    ("instance", "begin"),
    ("instance", "end"),
    ("instance", "jobs"),
    ("instance", "main_obstacles"),
    ("instance", "background_obstacles"),
    ("instance", "jobs", 0),
    ("instance", "jobs", 0, "index"),
    ("instance", "jobs", 1, "compression_time"),
    ("instance", "jobs", 1, "io_time"),
    ("instance", "jobs", 2, "label"),
    ("instance", "jobs", 2, "io_release"),
    ("instance", "jobs", 0, "extra"),
    ("instance", "main_obstacles", 0),
    ("instance", "main_obstacles", 0, 1),
    ("instance", "background_obstacles", 0, 0),
]
_DELETE = object()


def parse_outcome(payload) -> str:
    try:
        return repr(parse_solve_payload(payload))
    except BadRequestError as exc:
        return f"BadRequestError: {exc}"


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    path=st.sampled_from(_PATHS),
    value=st.one_of(st.just(_DELETE), _json_values),
    algorithm=st.sampled_from(list_algorithms()),
)
@settings(max_examples=300, deadline=None)
def test_parse_gives_the_two_pass_work_and_error(seed, path, value, algorithm):
    instance = random_instance(
        np.random.default_rng(seed),
        num_jobs=4,
        num_main_obstacles=2,
        num_background_obstacles=2,
    )
    # Through JSON text, as the HTTP layer hands it over.
    payload = json.loads(
        json.dumps(
            {
                "instance": instance_json_dict(instance),
                "algorithm": algorithm,
                "time_limit": 5.0,
                "tenant": "t",
            }
        )
    )
    target = payload
    for step in path[:-1]:
        target = target[step]
    last = path[-1]
    if value is not _DELETE:
        target[last] = value
    elif isinstance(target, dict):
        target.pop(last, None)
    else:
        del target[last]

    def two_pass(raw):
        return instance_from_json(json.dumps(raw))

    with mock.patch.object(protocol, "instance_from_json_dict", two_pass):
        expected = parse_outcome(payload)
    assert parse_outcome(payload) == expected


def test_parse_names_the_instance_for_a_value_json_cannot_carry():
    """Only an in-process caller can send one; it stays a 400."""
    raw = instance_json_dict(figure1_instance())
    raw["jobs"][0]["index"] = np.int64(0)
    with pytest.raises(
        BadRequestError,
        match="request field 'instance': Object of type int64 is not JSON",
    ):
        parse_solve_payload({"instance": raw})


@pytest.mark.parametrize("algorithm", list_algorithms())
def test_solution_dict_gives_the_two_pass_bytes(algorithm):
    for seed in range(3):
        instance = random_instance(np.random.default_rng(seed), num_jobs=6)
        result = solve(instance, algorithm)
        two_pass = {
            "algorithm": result.algorithm,
            "engine": result.engine,
            "status": result.status,
            "makespan": result.makespan,
            "schedule": json.loads(schedule_to_json(result.schedule)),
            "detail": result.detail,
        }
        assert json.dumps(solution_json_dict(result)) == json.dumps(two_pass)
