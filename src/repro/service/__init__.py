"""Scheduling-as-a-service: the solver stack behind a long-running server.

Where the rest of the package answers "solve this instance" as a library
call, this subpackage keeps a solver warm and shares it: a long-running
service with exact memoization, priority dispatch, and per-tenant
admission control in front of :func:`repro.core.solve` and
:func:`repro.engines.run_campaign`.

Layered, innermost first:

* :mod:`~repro.service.protocol` — wire shapes: request validation,
  the canonical solve-request identity (memo key), deterministic
  solution payloads, reply encoding, structured rejections;
* :mod:`~repro.service.cache` — the identity-keyed in-memory LRU memo
  cache;
* :mod:`~repro.service.admission` — per-tenant token-bucket quotas;
* :mod:`~repro.service.dispatch` — the bounded priority queue and
  the solver workers draining it, with per-request deadlines;
* :mod:`~repro.service.recovery` — the durable request ledger and the
  chaos crash points of the serving tier;
* :mod:`~repro.service.service` — :class:`SchedulingService`, the
  HTTP-free core wiring the above plus crash recovery and per-request
  telemetry spans;
* :mod:`~repro.service.server` — the stdlib-asyncio JSON-over-HTTP
  front (``repro serve``), with the watchdog heartbeat;
* :mod:`~repro.service.watchdog` — parent-process supervision with
  bounded-backoff restart (``repro serve --supervised``);
* :mod:`~repro.service.client` — the blocking client
  (``repro submit``), optionally retrying with idempotency keys.
"""

from .admission import AdmissionController, TokenBucket
from .cache import MemoCache
from .client import ServiceClient, ServiceUnavailableError
from .dispatch import DispatchOutcome, SolveDispatcher
from .protocol import (
    REJECT_DEADLINE,
    REJECT_DRAINING,
    REJECT_QUEUE_FULL,
    REJECT_QUOTA,
    REJECT_SHUTTING_DOWN,
    BadRequestError,
    Rejection,
    SolveWork,
    campaign_request_key,
    parse_solve_payload,
    solution_json_dict,
    solve_request_key,
)
from .recovery import LedgerEntry, RequestLedger
from .server import ServiceServer, serve_forever
from .service import SchedulingService, ServiceConfig
from .watchdog import Watchdog

__all__ = [
    "AdmissionController",
    "BadRequestError",
    "DispatchOutcome",
    "LedgerEntry",
    "MemoCache",
    "REJECT_DEADLINE",
    "REJECT_DRAINING",
    "REJECT_QUEUE_FULL",
    "REJECT_QUOTA",
    "REJECT_SHUTTING_DOWN",
    "Rejection",
    "RequestLedger",
    "SchedulingService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "ServiceUnavailableError",
    "SolveDispatcher",
    "SolveWork",
    "TokenBucket",
    "Watchdog",
    "campaign_request_key",
    "parse_solve_payload",
    "serve_forever",
    "solution_json_dict",
    "solve_request_key",
]
