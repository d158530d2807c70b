"""Request identity and reply encoding.

Two requests are the same request only when their canonical JSON is:
the service's lookup keys are 128-bit BLAKE2b digests, not CRC32C
stamps, so the memo cache, the ledger and the client's retry header
never mistake one request for another.  Replies are encoded once per
stored value, and every reply's bytes are still exactly
``json.dumps(body).encode()``.
"""

import hashlib
import http.client
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Interval, Job, ProblemInstance, instance_json_dict
from repro.durability import canonical_json, fingerprint_json, identity_json
from repro.resilience import RetryPolicy
from repro.service import (
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    campaign_request_key,
    solve_request_key,
)
from repro.service.protocol import EncodedJSON, reply_bytes
from tests.service.conftest import serve_in_thread

#: Two job labels whose requests share a CRC32C (CRC32C is affine, so
#: such pairs are easy to construct) but are different requests.
LABELS = ("qnktmkgw", "oxvlktoh")


def labelled_instance(label: str) -> ProblemInstance:
    return ProblemInstance(
        begin=0.0,
        end=10.0,
        jobs=(Job(0, 1.0, 1.0, label=label), Job(1, 2.0, 0.5)),
        main_obstacles=(Interval(3.0, 4.0),),
    )


def payload(label: str, **extra) -> dict:
    return {
        "instance": instance_json_dict(labelled_instance(label)),
        "algorithm": "ExtJohnson",
        **extra,
    }


def served_label(body: dict) -> str:
    return body["solution"]["schedule"]["instance"]["jobs"][0]["label"]


class TestKeys:
    def test_identity_is_blake2b_128_of_canonical_json(self):
        value = {"b": [1, 2.0, "é"], "a": None}
        expected = hashlib.blake2b(
            canonical_json(value).encode(), digest_size=16
        ).hexdigest()
        assert identity_json(value) == expected
        assert len(expected) == 32
        assert identity_json({"a": None, "b": [1, 2.0, "é"]}) == expected

    def test_integrity_stamp_is_still_crc32c(self):
        assert len(fingerprint_json({"a": 1})) == 8

    def test_colliding_crc_requests_get_distinct_keys(self):
        instances = [labelled_instance(label) for label in LABELS]
        stamps = {
            fingerprint_json(
                {
                    "instance": instance_json_dict(instance),
                    "algorithm": "ExtJohnson",
                    "engine": "sim",
                    "time_limit": None,
                }
            )
            for instance in instances
        }
        # The CRC cannot tell these requests apart ...
        assert len(stamps) == 1
        # ... the request key can.
        keys = {solve_request_key(i, "ExtJohnson") for i in instances}
        assert len(keys) == 2
        assert all(len(key) == 32 for key in keys)

    def test_campaign_key_is_an_identity(self):
        key = campaign_request_key({"app": "nyx", "seed": 3})
        assert key == identity_json({"campaign": {"app": "nyx", "seed": 3}})


class TestCollidingRequests:
    """Requests whose CRC32C collide are served their own solutions."""

    def test_memo_cache(self):
        service = SchedulingService(ServiceConfig(workers=1))
        try:
            first = service.solve(payload(LABELS[0]))
            second = service.solve(payload(LABELS[1]))
        finally:
            service.shutdown()
        assert first[0] == second[0] == 200
        assert second[1]["cache"] == "miss"
        assert served_label(first[1]) == LABELS[0]
        assert served_label(second[1]) == LABELS[1]

    def test_ledger(self, tmp_path):
        config = ServiceConfig(
            workers=1, ledger_path=str(tmp_path / "ledger.jsonl")
        )
        service = SchedulingService(config)
        try:
            assert service.solve(payload(LABELS[0]))[0] == 200
            status, body = service.solve(payload(LABELS[1], cache=False))
        finally:
            service.shutdown()
        assert status == 200
        assert body["cache"] == "bypass"
        assert served_label(body) == LABELS[1]

    def test_client_retry_key(self):
        client = ServiceClient(
            "127.0.0.1",
            1,
            retry=RetryPolicy(max_attempts=1),
            rng=np.random.default_rng(0),
        )
        sent = []

        def transport(method, path, body=None, headers=None):
            sent.append(headers["X-Idempotency-Key"])
            return 200, {}

        client._request_once = transport
        for label in LABELS:
            client.solve(payload(label))
        assert len(set(sent)) == 2
        assert all(len(key) == 32 for key in sent)


# ----------------------------------------------------------------------
# Encode once, byte-identical
# ----------------------------------------------------------------------

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)


def _maybe_encoded(value: dict):
    """A dict, or the same dict carrying its stored encoding."""
    return st.sampled_from([value, EncodedJSON(value)])


json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4).flatmap(
        _maybe_encoded
    ),
    max_leaves=20,
)
bodies = st.dictionaries(st.text(max_size=6), json_values, max_size=6).flatmap(
    _maybe_encoded
)


@settings(max_examples=300, deadline=None)
@given(bodies)
def test_reply_bytes_equal_json_dumps(body):
    assert reply_bytes(body) == json.dumps(body).encode()


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_reply_bytes_of_any_value(value):
    assert reply_bytes(value) == json.dumps(value).encode()


def test_reply_bytes_with_non_string_keys():
    body = {1: "a", None: EncodedJSON({"x": 1.5}), "s": "ü"}
    assert reply_bytes(body) == json.dumps(body).encode()


def test_cache_stores_the_encoding_once():
    from repro.service import MemoCache

    cache = MemoCache(capacity=2)
    stored = cache.put("k", {"makespan": 1.5, "label": "é"})
    assert type(stored) is EncodedJSON
    assert stored.encoded == json.dumps(stored).encode()
    assert cache.get("k") is stored
    assert cache.put("j", stored) is stored


@pytest.fixture
def ledgered_server(tmp_path):
    service = SchedulingService(
        ServiceConfig(
            workers=1,
            quota_rate=1e9,
            quota_burst=1e9,
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
    )
    thread, port = serve_in_thread(service)
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    yield conn
    conn.request("POST", "/shutdown")
    conn.getresponse().read()
    conn.close()
    thread.join(timeout=20.0)
    assert not thread.is_alive()


def raw_post(conn, body: dict) -> bytes:
    conn.request(
        "POST",
        "/solve",
        body=json.dumps(body),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    raw = response.read()
    assert response.status == 200, raw
    return raw


def test_http_replies_are_json_dumps_of_their_bodies(ledgered_server):
    request = payload("é-label")
    miss = raw_post(ledgered_server, request)
    hit = raw_post(ledgered_server, request)
    ledger_hit = raw_post(ledgered_server, dict(request, cache=False))
    decoded = [json.loads(raw) for raw in (miss, hit, ledger_hit)]
    for raw, body in zip((miss, hit, ledger_hit), decoded):
        assert raw == json.dumps(body).encode()
    assert [body["cache"] for body in decoded] == ["miss", "hit", "miss"]
    # A ledger hit replays the settled reply, byte for byte.
    assert ledger_hit == miss
    # The hit's solution is the miss's, byte for byte.
    solution = json.dumps(decoded[0]["solution"]).encode()
    assert json.dumps(decoded[1]["solution"]).encode() == solution
    assert b'"solution": ' + solution in miss
    assert b'"solution": ' + solution in hit
