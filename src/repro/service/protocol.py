"""Wire shapes of the scheduling service: requests, solutions, rejections.

Everything the service speaks is plain JSON.  This module owns the
translation between wire payloads and typed objects:

* :func:`parse_solve_payload` — a ``POST /solve`` body into a validated
  :class:`SolveWork`, with errors that name the offending field;
* :func:`solve_request_key` — the memo-cache key: the 128-bit
  canonical-JSON identity (:func:`~repro.durability.identity_json`) of
  *everything that determines the solution* (instance, algorithm,
  engine, time limit), over :func:`repro.core.instance_json_dict`'s
  canonical instance form;
* :func:`solution_json_dict` — a :class:`~repro.core.SolveResult` into
  the JSON-safe solution payload the cache stores and responses embed
  (deterministic: no wall-clock fields, so a cache hit is byte-identical
  to the miss that filled it);
* :class:`EncodedJSON` and :func:`reply_bytes` — a stored value keeps
  its reply encoding, and a reply body is written item by item around
  it, so serving a stored value costs no encode;
* :class:`Rejection` — the structured refusal every overload path
  returns instead of an exception trace (429-style for quota/queue
  pressure, 504-style for expired deadlines, 503 while draining).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..core.model import ProblemInstance
from ..core.registry import DEFAULT_ALGORITHM, get_algorithm_info
from ..core.serialization import (
    instance_from_json_dict,
    instance_json_dict,
    schedule_json_dict,
)
from ..core.solve import SolveResult
from ..durability.fingerprint import identity_json

__all__ = [
    "BadRequestError",
    "EncodedJSON",
    "Rejection",
    "SolveWork",
    "REJECT_QUOTA",
    "REJECT_QUEUE_FULL",
    "REJECT_DEADLINE",
    "REJECT_SHUTTING_DOWN",
    "REJECT_DRAINING",
    "parse_solve_payload",
    "solve_request_key",
    "campaign_request_key",
    "solution_json_dict",
    "reply_bytes",
]

#: Per-tenant token bucket is empty — retry after ``retry_after_s``.
REJECT_QUOTA = "quota_exhausted"
#: The bounded admission queue is at capacity.
REJECT_QUEUE_FULL = "queue_full"
#: The request's deadline expired while it waited in the queue.
REJECT_DEADLINE = "deadline_exceeded"
#: The service is draining for shutdown and admits nothing new.
REJECT_SHUTTING_DOWN = "shutting_down"
#: The drain deadline expired before this queued request could run.
REJECT_DRAINING = "draining"


class BadRequestError(ValueError):
    """A malformed request body; the message names the bad field."""


@dataclass(frozen=True)
class Rejection:
    """A structured refusal: machine-readable code, human message.

    ``http_status`` is what the HTTP layer sends (429 for pressure, 504
    for expired deadlines, 503 while draining); ``retry_after_s`` is the
    token-bucket refill estimate when one exists.
    """

    code: str
    message: str
    http_status: int = 429
    retry_after_s: float | None = None

    def to_json_dict(self) -> dict:
        """The ``error`` object embedded in a rejection response."""
        error: dict = {"code": self.code, "message": self.message}
        if self.retry_after_s is not None:
            error["retry_after_s"] = round(self.retry_after_s, 6)
        return error


@dataclass(frozen=True)
class SolveWork:
    """One validated solve request, ready for admission and dispatch.

    ``key`` is the memo-cache identity (see :func:`solve_request_key`).
    """

    instance: ProblemInstance
    algorithm: str
    engine: str
    time_limit: float | None
    tenant: str
    priority: int
    deadline_s: float | None
    use_cache: bool
    key: str


def solve_request_key(
    instance: ProblemInstance,
    algorithm: str,
    engine: str = "sim",
    time_limit: float | None = None,
) -> str:
    """The memo-cache key of a solve request.

    The :func:`~repro.durability.identity_json` of the canonical
    instance form together with every knob that can change the
    produced schedule — so "identical request" means exactly
    "byte-identical canonical serialization", and two different
    requests never share a key.
    """
    return identity_json(
        {
            "instance": instance_json_dict(instance),
            "algorithm": algorithm,
            "engine": engine,
            "time_limit": time_limit,
        }
    )


#: Campaign request fields that determine the executed campaign — the
#: idempotency fingerprint is defined over exactly these (plus the
#: server-side journal path, which changes what a replay resumes).
CAMPAIGN_KEY_FIELDS = (
    "app",
    "nodes",
    "ppn",
    "iterations",
    "solution",
    "seed",
    "engine",
    "faults",
    "data_dir",
    "data_edge",
    "workers",
    "journal",
)


def campaign_request_key(payload: dict) -> str:
    """The idempotency key of a campaign request.

    Same :func:`~repro.durability.identity_json` definition as
    :func:`solve_request_key`, over every field that can change the
    campaign's outcome.  ``tenant`` is deliberately excluded: two
    tenants submitting the same campaign are still the same work.
    """
    return identity_json(
        {
            "campaign": {
                name: payload.get(name)
                for name in CAMPAIGN_KEY_FIELDS
                if payload.get(name) is not None
            }
        }
    )


def _field(payload: dict, name: str, types, default, *, required=False):
    if name not in payload or payload[name] is None:
        if required:
            raise BadRequestError(f"request field {name!r} is required")
        return default
    value = payload[name]
    # bool is an int subclass; only accept it where bool is asked for.
    if types is bool:
        ok = isinstance(value, bool)
    else:
        ok = isinstance(value, types) and not isinstance(value, bool)
    if not ok:
        raise BadRequestError(
            f"request field {name!r} has the wrong type: {value!r}"
        )
    return value


def parse_solve_payload(payload: dict) -> SolveWork:
    """Validate a ``POST /solve`` body into a :class:`SolveWork`.

    Raises :class:`BadRequestError` naming the offending field for any
    malformed input — the HTTP layer turns that into a 400 with a
    structured error body, never a traceback.
    """
    if not isinstance(payload, dict):
        raise BadRequestError(
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    raw_instance = _field(payload, "instance", dict, None, required=True)
    try:
        instance = instance_from_json_dict(raw_instance)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRequestError(f"request field 'instance': {exc}") from exc

    algorithm = _field(payload, "algorithm", str, DEFAULT_ALGORITHM)
    try:
        info = get_algorithm_info(algorithm)
    except KeyError as exc:
        raise BadRequestError(
            f"request field 'algorithm': {exc.args[0]}"
        ) from exc
    if info.max_jobs is not None and instance.num_jobs > info.max_jobs:
        # The caller's mistake, refused before admission: it must not
        # count as an engine failure or open a ledger entry.
        raise BadRequestError(
            f"request field 'algorithm': {algorithm} is limited to "
            f"{info.max_jobs} jobs (got {instance.num_jobs})"
        )

    engine = _field(payload, "engine", str, "sim")
    if engine != "sim":
        from ..engines import EngineError, get_engine

        try:
            get_engine(engine)
        except EngineError as exc:
            raise BadRequestError(
                f"request field 'engine': {exc}"
            ) from exc

    time_limit = _field(payload, "time_limit", (int, float), None)
    if time_limit is not None and not time_limit > 0:
        raise BadRequestError(
            f"request field 'time_limit' must be positive, got {time_limit!r}"
        )
    deadline_s = _field(payload, "deadline_s", (int, float), None)
    if deadline_s is not None and not deadline_s > 0:
        raise BadRequestError(
            f"request field 'deadline_s' must be positive, got {deadline_s!r}"
        )
    priority = _field(payload, "priority", int, 0)
    tenant = _field(payload, "tenant", str, "default")
    if not tenant:
        raise BadRequestError("request field 'tenant' must be non-empty")
    use_cache = _field(payload, "cache", bool, True)

    time_limit = None if time_limit is None else float(time_limit)
    try:
        key = solve_request_key(instance, algorithm, engine, time_limit)
    except (TypeError, ValueError) as exc:
        # Only an in-process caller can get here, with a value JSON
        # cannot carry (a numpy integer, say) inside the instance.
        raise BadRequestError(f"request field 'instance': {exc}") from exc
    return SolveWork(
        instance=instance,
        algorithm=algorithm,
        engine=engine,
        time_limit=time_limit,
        tenant=tenant,
        priority=int(priority),
        deadline_s=None if deadline_s is None else float(deadline_s),
        use_cache=bool(use_cache),
        key=key,
    )


def solution_json_dict(result: SolveResult) -> dict:
    """The JSON-safe solution payload of one solve.

    Deliberately deterministic — no wall-clock or per-run fields — so
    the byte-identity guarantee holds: a cached copy of this dict is
    indistinguishable from re-solving.  The schedule embeds its instance
    (the :func:`~repro.core.schedule_from_json` shape), so a client can
    re-validate the solution locally.
    """
    schedule = result.schedule
    return {
        "algorithm": result.algorithm,
        "engine": result.engine,
        "status": result.status,
        "makespan": result.makespan,
        "schedule": (
            None if schedule is None else schedule_json_dict(schedule)
        ),
        "detail": result.detail,
    }


class EncodedJSON(dict):
    """A JSON object that carries its reply encoding.

    ``encoded`` is ``json.dumps(self).encode()``, made once when the
    service stores the value (a memo-cache solution, a settled ledger
    body).  :func:`reply_bytes` writes those bytes wherever the object
    is a reply body or one of its items, so serving a stored value
    encodes only the envelope around it.  Holders never mutate it.
    """

    __slots__ = ("encoded",)

    def __init__(self, value: dict, encoded: bytes | None = None) -> None:
        super().__init__(value)
        self.encoded = reply_bytes(value) if encoded is None else encoded


def reply_bytes(body) -> bytes:
    """``json.dumps(body).encode()``, reusing every stored encoding.

    A body that is itself an :class:`EncodedJSON` goes out verbatim; a
    plain dict is written item by item, each :class:`EncodedJSON` item
    as its stored bytes.  Anything nested deeper is encoded by
    ``json.dumps``, which gives a stored value's bytes anyway.
    """
    if type(body) is EncodedJSON:
        return body.encoded
    if type(body) is not dict or not all(type(key) is str for key in body):
        # json.dumps coerces non-string keys; leave those to it.
        return json.dumps(body).encode()
    dumps = json.dumps
    return b"{%s}" % b", ".join(
        b"%s: %s"
        % (
            dumps(key).encode(),
            value.encoded
            if type(value) is EncodedJSON
            else dumps(value).encode(),
        )
        for key, value in body.items()
    )
