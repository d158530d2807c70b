"""The scheduling service core: solve/campaign handling, HTTP-free.

:class:`SchedulingService` is the whole request path minus the wire
protocol, plus status aggregation and graceful drain.  The asyncio HTTP
server (:mod:`repro.service.server`) is a thin adapter over it, and
benchmarks/tests drive it in-process so cache-hit latency can be
measured without a socket in the loop.

Both endpoints run one request lifecycle, each step written once
(``docs/service.md`` tabulates which steps each endpoint skips):

1. parse + validate, derive the idempotency key (400 on failure);
2. *solve only* — memo-cache lookup by canonical identity: a hit is
   answered at once, with no admission token spent, no queue wait and
   *no solver span*;
3. :meth:`SchedulingService._begin` — settled-ledger replay (a key
   closed with a 200 gets the recorded body), in-flight coalescing,
   admission (token bucket; skipped for ledger recovery), and *for a
   campaign* the write-ahead *open* record;
4. execute — solve: priority dispatch (429 ``queue_full``), then memo
   store; campaign: its own pool, journal resume on recovery;
5. :meth:`SchedulingService._settle`, the one exit — ledger *close*
   record (a campaign's, whatever its answer; a solve's only when it
   executed and got a 200, and then the reply is the bytes the record
   stored), ``/status`` counters, span, reply.

A solve writes no open record: it is a pure, deterministic function of
its request, so a crash before its close costs the client's retry one
more solve and nothing else.  The memo cache is in-memory only; the
ledger is the one store of replies that survives a restart.

Every request — hit, miss, rejection or failure — is answered and emits
one ``service.request`` span carrying tenant, cache outcome, queue wait,
and solve time, so a ``--trace-out`` recording of a serving session is
a complete request log.  An exception after step 1 is answered 500 and
writes no close record: a campaign's entry stays open, to be replayed
at the next start.  A failure answers only the request that raised it;
no other request is refused because of it.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from ..core.solve import solve
from ..resilience.spec import parse_fault_spec
from ..telemetry import NULL_TRACER, NullTracer
from .admission import AdmissionController
from .cache import MemoCache
from .dispatch import DispatchOutcome, SolveDispatcher
from .protocol import (
    REJECT_QUEUE_FULL,
    REJECT_SHUTTING_DOWN,
    CAMPAIGN_KEY_FIELDS,
    BadRequestError,
    Rejection,
    SolveWork,
    campaign_request_key,
    parse_solve_payload,
    solution_json_dict,
)
from .recovery import RequestLedger, crash_injector_from_env

__all__ = ["ServiceConfig", "SchedulingService"]

#: ``/status`` counter a 200 reply bumps, by the request's cache outcome.
_HIT_COUNTERS = {"hit": "cache_hits", "ledger": "ledger_hits"}


@dataclass
class _Request:
    """One request on its way through the lifecycle."""

    endpoint: str  # "solve" | "campaign"
    request_id: str
    t0: float
    #: A ledger-recovery re-submission: admission was paid before the
    #: crash and the *open* record already exists.
    replay: bool
    tenant: str = ""
    #: Ledger and coalescing key: the client's ``idempotency_key``
    #: (its retry header) or the canonical request identity.
    key: str = ""
    cache: str = "bypass"  # hit | miss | bypass | ledger
    #: Memo-cache key of a solve, carried on its span.
    fingerprint: str | None = None
    #: What duplicates wait on; set once the request is in flight.
    response: Future | None = None


def _wait(pending, timeout: float | None):
    """The ``(status, body)`` pair behind a ``begin_*`` return value."""
    if isinstance(pending, Future):
        return pending.result(timeout=timeout)
    return pending


def _idempotency_key(payload: dict, default: str) -> str:
    raw = payload.get("idempotency_key")
    return raw if isinstance(raw, str) and raw else default


def _error_body(request: _Request, error: dict) -> dict:
    body = {"ok": False, "request_id": request.request_id}
    if request.tenant:
        body["tenant"] = request.tenant
    body["error"] = error
    return body


def _failure(request: _Request, code: str, exc: BaseException):
    """The 500 reply naming ``exc``."""
    error = {"code": code, "message": f"{type(exc).__name__}: {exc}"}
    return 500, _error_body(request, error)


def _solve_body(request: _Request, solution: dict) -> dict:
    return {
        "ok": True,
        "request_id": request.request_id,
        "tenant": request.tenant,
        "cache": request.cache,
        "key": request.fingerprint,
        "solution": solution,
    }


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (all validated on construction).

    Attributes:
        workers: solver worker threads draining the dispatch queue.
        max_queue: bounded dispatch-queue depth; requests beyond it get
            a structured ``queue_full`` rejection.
        cache_size: memo-cache capacity in entries (0 disables).
        quota_rate: default per-tenant token refill, requests/second.
        quota_burst: default per-tenant bucket capacity.
        tenant_quotas: per-tenant ``(rate, burst)`` overrides.
        campaign_cost: admission tokens one campaign request costs.
        ledger_path: optional request ledger: admitted campaigns are
            journaled and replayed after a crash, and each executed
            solve's 200 reply is recorded for retries (see
            :mod:`repro.service.recovery`).
        drain_deadline_s: hard cap on graceful-drain time; queued
            requests past it get a 503 ``draining`` rejection.
    """

    workers: int = 2
    max_queue: int = 64
    cache_size: int = 256
    quota_rate: float = 50.0
    quota_burst: float = 20.0
    tenant_quotas: dict = field(default_factory=dict)
    campaign_cost: float = 4.0
    ledger_path: str | None = None
    drain_deadline_s: float = 30.0

    def __post_init__(self) -> None:
        def bad(name: str, requirement: str) -> ValueError:
            return ValueError(
                f"ServiceConfig.{name} {requirement}, got "
                f"{getattr(self, name)!r}"
            )

        if self.workers < 1:
            raise bad("workers", "must be >= 1")
        if self.max_queue < 1:
            raise bad("max_queue", "must be >= 1")
        if self.cache_size < 0:
            raise bad("cache_size", "must be >= 0")
        if self.quota_rate < 0:
            raise bad("quota_rate", "must be >= 0")
        if self.quota_burst <= 0:
            raise bad("quota_burst", "must be > 0")
        if self.campaign_cost <= 0:
            raise bad("campaign_cost", "must be > 0")
        if self.drain_deadline_s <= 0:
            raise bad("drain_deadline_s", "must be > 0")


class SchedulingService:
    """Scheduling-as-a-service: memoized, prioritized, quota-guarded.

    ``begin_solve`` / ``begin_campaign`` return either an immediate
    ``(http_status, body)`` pair (cache hit, rejection, bad request) or
    a :class:`concurrent.futures.Future` resolving to one — the asyncio
    server awaits the future, synchronous callers use the blocking
    :meth:`solve` / :meth:`campaign` conveniences.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        tracer: NullTracer = NULL_TRACER,
        clock=time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.tracer = tracer
        self._clock = clock
        self.cache = MemoCache(capacity=self.config.cache_size)
        self.admission = AdmissionController(
            rate=self.config.quota_rate,
            burst=self.config.quota_burst,
            tenant_quotas=self.config.tenant_quotas,
            clock=clock,
        )
        self.dispatcher = SolveDispatcher(
            self._solve_work,
            workers=self.config.workers,
            max_queue=self.config.max_queue,
            clock=clock,
        )
        self._campaign_pool = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix="repro-campaign",
        )
        self._lock = threading.Lock()
        self._requests = 0
        self._counts = {
            "solve": 0,
            "campaign": 0,
            "cache_hits": 0,
            "rejected": 0,
            "errors": 0,
            "coalesced": 0,
            "ledger_hits": 0,
            "replayed": 0,
        }
        self._inflight: dict[str, Future] = {}
        self.ledger = (
            RequestLedger(self.config.ledger_path)
            if self.config.ledger_path is not None
            else None
        )
        self.injector = crash_injector_from_env()
        self._draining = False
        self._started_at = clock()

    # ------------------------------------------------------------------
    # the shared request lifecycle
    # ------------------------------------------------------------------
    def _new_request(self, endpoint: str, replay: bool) -> _Request:
        t0 = time.perf_counter()
        with self._lock:
            self._requests += 1
            self._counts[endpoint] += 1
            return _Request(endpoint, f"req-{self._requests:06d}", t0, replay)

    def _guarded(self, request: _Request, step, *args):
        """Run one stretch of the lifecycle; whatever it raises, the
        request is answered.

        A :class:`BadRequestError` is the caller's mistake (400).  Any
        other exception is a *fault* of the service: 500, and the ledger
        entry stays open so the next start replays the request.
        """
        try:
            return step(request, *args)
        except BadRequestError as exc:
            error = {"code": "bad_request", "message": str(exc)}
            return self._settle(request, 400, _error_body(request, error))
        except Exception as exc:
            return self._settle(
                request,
                *_failure(request, "internal_error", exc),
                fault=type(exc).__name__,
            )

    def _begin(self, request: _Request, payload: dict, cost: float):
        """The one admission path, from parsed request to durable intent.

        Returns what to answer with when the request ends here — a
        recorded reply, a rejection, or the future of the in-flight
        request it duplicates — and ``None`` when the endpoint should
        go on and execute it.
        """
        recorded = (
            self.ledger.closed_body(request.key)
            if self.ledger is not None
            else None
        )
        if (
            recorded is not None
            and recorded[0] == 200
            and isinstance(recorded[1], dict)
        ):
            # Settled before (possibly before a restart): the recorded
            # body is served verbatim — exactly-once for retries.
            request.cache = "ledger"
            return self._settle(request, *recorded)
        # Duplicate in-flight submissions with the same idempotency key
        # coalesce onto the one pending future — one execution, many
        # waiters.
        with self._lock:
            existing = self._inflight.get(request.key)
            if existing is not None:
                self._counts["coalesced"] += 1
                return existing
            request.response = self._inflight[request.key] = Future()
        if not request.replay:
            rejection = (
                self._draining_rejection()
                if self._draining
                else self.admission.admit(request.tenant, cost=cost)
            )
            if rejection is not None:
                return self._reject(request, rejection)
        # Write-ahead, for campaigns: the open record lands *before* the
        # work is queued, so no admitted campaign can crash into the gap
        # between enqueue and journal.  A solve needs none (see the
        # module docstring).
        if self.ledger is not None and request.endpoint == "campaign":
            self.ledger.record_open(
                request.key,
                request.endpoint,
                {k: v for k, v in payload.items() if k != "idempotency_key"},
            )
        self.injector.crash_point("post-admission")
        return None

    def _reject(
        self, request: _Request, rejection: Rejection, queue_wait_s: float = 0.0
    ):
        return self._settle(
            request,
            rejection.http_status,
            _error_body(request, rejection.to_json_dict()),
            rejection=rejection.code,
            queue_wait_s=queue_wait_s,
        )

    def _settle(self, request: _Request, status: int, body: dict, **span_attrs):
        """The one exit: close record, counters, span, reply.

        The close record is written first, so no reply is sent for a
        result the ledger could still lose; if that append fails (disk
        full) the reply becomes a fault.  A campaign closes its open
        entry whatever its answer — a refused one must not be replayed
        as if admitted — and closing a key that is not open is a no-op.
        A replayed version-1 solve closes its open entry the same way.
        Any other solve writes its one record only when it executed and
        got a 200, and replies with the bytes that record stored.  A
        request that never parsed (no key), a ledger hit (it *is* the
        close record) and a fault (see :meth:`_guarded`) write none.
        """
        t1 = time.perf_counter()
        if (
            self.ledger is not None
            and request.key
            and request.cache != "ledger"
            and "fault" not in span_attrs
        ):
            try:
                if request.endpoint == "campaign" or request.replay:
                    self.ledger.record_close(request.key, status, body)
                elif status == 200 and request.cache != "hit":
                    recorded = self.ledger.record_solved(request.key, body)
                    if recorded is not None:
                        body = recorded
            except Exception as exc:
                status, body = _failure(request, "internal_error", exc)
                span_attrs = {"fault": type(exc).__name__}
        if "rejection" in span_attrs:
            counter = "rejected"
        elif status != 200:
            counter = "errors"
        else:
            counter = _HIT_COUNTERS.get(request.cache)
        with self._lock:
            if counter is not None:
                self._counts[counter] += 1
            if request.response is not None:
                del self._inflight[request.key]
        if self.tracer.enabled:
            if request.fingerprint is not None:
                span_attrs["key"] = request.fingerprint
            self.tracer.span(
                "service.request",
                t0=request.t0,
                t1=t1,
                endpoint=request.endpoint,
                request_id=request.request_id,
                tenant=request.tenant,
                cache=request.cache,
                status=status,
                **span_attrs,
            )
            self.tracer.counter("service.requests").inc()
        if request.response is not None:
            request.response.set_result((status, body))
        return status, body

    # ------------------------------------------------------------------
    # solve path
    # ------------------------------------------------------------------
    def _solve_work(self, work: SolveWork) -> dict:
        """Run one solver call on a dispatcher worker (thread-safe)."""
        self.injector.crash_point("mid-dispatch")
        result = solve(
            work.instance,
            work.algorithm,
            tracer=self.tracer,
            time_limit=work.time_limit,
            engine=work.engine,
        )
        return solution_json_dict(result)

    def begin_solve(self, payload: dict, *, _replay: bool = False):
        """Handle a solve request; immediate pair or pending future.

        ``_replay`` marks a ledger-recovery re-submission of a
        version-1 ledger's open solve: the request already paid
        admission before the crash, so the token-bucket charge is
        skipped, and its answer closes that ``open`` record.
        """
        return self._guarded(
            self._new_request("solve", _replay), self._solve, payload
        )

    def _solve(self, request: _Request, payload: dict):
        work = parse_solve_payload(payload)
        request.tenant, request.fingerprint = work.tenant, work.key
        request.key = _idempotency_key(payload, work.key)
        request.cache = "miss" if work.use_cache else "bypass"
        if work.use_cache:
            cached = self.cache.get(work.key)
            if cached is not None:
                # A hit writes no ledger record, except that a replayed
                # version-1 solve whose close a crash lost settles its
                # open entry here.
                request.cache = "hit"
                return self._settle(request, 200, _solve_body(request, cached))
        answer = self._begin(request, payload, 1.0)
        if answer is not None:
            return answer
        try:
            future = self.dispatcher.try_submit(work)
        except RuntimeError:
            return self._reject(request, self._draining_rejection())
        if future is None:
            return self._reject(
                request,
                Rejection(
                    code=REJECT_QUEUE_FULL,
                    message=(
                        "dispatch queue is at capacity "
                        f"({self.dispatcher.max_queue} requests)"
                    ),
                    http_status=429,
                    retry_after_s=0.05,
                ),
            )
        future.add_done_callback(
            lambda done: self._guarded(request, self._solved, work, done)
        )
        return request.response

    def _solved(self, request: _Request, work: SolveWork, done: Future):
        """Translate a finished dispatch into the request's reply."""
        exc = done.exception()
        if exc is not None:
            return self._settle(
                request, *_failure(request, "internal_error", exc)
            )
        outcome: DispatchOutcome = done.result()
        if outcome.rejection is not None:
            return self._reject(
                request, outcome.rejection, outcome.queue_wait_s
            )
        solution = outcome.solution
        if work.use_cache:
            # The stored copy carries its encoding: the reply and the
            # ledger's copy of it reuse those bytes.
            solution = self.cache.put(work.key, solution)
        self.injector.crash_point("pre-completion")
        # A crash before the close record leaves the ledger without the
        # solve, and the client's retry after the restart solves it
        # again, to the same solution.
        body = _solve_body(request, solution)
        body["timing"] = {
            "queue_wait_s": round(outcome.queue_wait_s, 6),
            "solve_s": round(outcome.solve_s, 6),
        }
        return self._settle(
            request,
            200,
            body,
            queue_wait_s=outcome.queue_wait_s,
            solve_s=outcome.solve_s,
        )

    def solve(self, payload: dict, timeout: float | None = 60.0):
        """Blocking convenience: the ``(status, body)`` of one request."""
        return _wait(self.begin_solve(payload), timeout)

    # ------------------------------------------------------------------
    # campaign path
    # ------------------------------------------------------------------
    def begin_campaign(self, payload: dict, *, _replay: bool = False):
        """Handle a campaign request; immediate pair or pending future.

        ``_replay`` marks a ledger-recovery re-submission: admission is
        skipped, and a journaled campaign resumes its existing journal
        via the ``--resume`` machinery instead of restarting from
        iteration zero.
        """
        return self._guarded(
            self._new_request("campaign", _replay), self._campaign, payload
        )

    def _campaign(self, request: _Request, payload: dict):
        request.tenant, spec, journal_path = self._campaign_spec(payload)
        request.key = _idempotency_key(payload, campaign_request_key(payload))
        answer = self._begin(request, payload, self.config.campaign_cost)
        if answer is not None:
            return answer
        self._campaign_pool.submit(
            self._guarded, request, self._run_campaign, spec, journal_path
        )
        return request.response

    def _run_campaign(self, request: _Request, spec, journal_path):
        self.injector.crash_point("mid-dispatch")
        try:
            report = self._run_campaign_or_resume(
                spec, journal_path, request.replay
            )
        except BaseException as exc:
            return self._settle(
                request, *_failure(request, "campaign_failed", exc)
            )
        summary = self._campaign_summary(report, journal_path)
        # Flushes and closes the write-ahead journal: after this,
        # every record is durable on disk.
        report.close()
        self.injector.crash_point("pre-completion")
        # Settled after the campaign journal is durable: a crash
        # landing between the two replays the campaign, and the journal
        # resume skips all committed iterations.
        return self._settle(
            request,
            200,
            {
                "ok": True,
                "request_id": request.request_id,
                "tenant": request.tenant,
                "campaign": summary,
            },
            solve_s=report.wall_time_s,
        )

    def _run_campaign_or_resume(self, spec, journal_path, replay: bool):
        """Run a campaign, resuming its journal on ledger replay.

        A replayed journaled campaign picks up the committed prefix via
        the standard ``--resume`` machinery; a journal that is missing
        (crash before creation) or unusable (torn beyond the tail,
        already complete with its report withheld) falls back to a
        fresh run — both paths converge to the same deterministic
        result.
        """
        from ..durability import JournalError
        from ..engines import run_campaign

        if replay and journal_path is not None and os.path.exists(journal_path):
            try:
                return run_campaign(
                    resume_path=journal_path, tracer=self.tracer
                )
            except JournalError:
                # Unusable journal: rerun from scratch under a fresh
                # journal file (determinism makes that equivalent).
                os.unlink(journal_path)
        return run_campaign(
            spec, journal_path=journal_path, tracer=self.tracer
        )

    def campaign(self, payload: dict, timeout: float | None = 300.0):
        """Blocking convenience around :meth:`begin_campaign`."""
        return _wait(self.begin_campaign(payload), timeout)

    def _campaign_spec(self, payload: dict):
        """``(tenant, spec, journal_path)`` of a campaign request body."""
        from ..engines import CampaignSpec

        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise BadRequestError(
                "request field 'tenant' must be a non-empty string"
            )
        # The fingerprinted fields: the spec's, plus the journal path.
        known = set(CAMPAIGN_KEY_FIELDS) - {"journal"}
        fields = {
            k: v
            for k, v in payload.items()
            if k in known and v is not None
        }
        unknown = (
            set(payload) - known - {"tenant", "journal", "idempotency_key"}
        )
        if unknown:
            raise BadRequestError(
                "unknown campaign request fields: "
                + ", ".join(sorted(unknown))
            )
        journal = payload.get("journal")
        if journal is not None and (
            not isinstance(journal, str) or not journal
        ):
            raise BadRequestError(
                f"request field 'journal' must be a path, got {journal!r}"
            )
        # A spec or fault plan the engine would refuse is the client's
        # error: a 400 here, not a 500 campaign_failed.
        try:
            spec = CampaignSpec(**fields)
            if spec.faults is not None:
                parse_fault_spec(spec.faults)
            return tenant, spec, journal
        except (TypeError, ValueError) as exc:
            raise BadRequestError(str(exc)) from exc

    def _campaign_summary(self, report, journal_path) -> dict:
        result = report.result
        summary = {
            "solution": result.solution,
            "engine": report.engine,
            "spec_crc32c": report.spec.fingerprint(),
            "iterations": len(result.records),
            "mean_relative_overhead": result.mean_relative_overhead,
            "total_time": result.total_time,
            "wall_time_s": round(report.wall_time_s, 6),
            "journal": journal_path,
        }
        if report.data is not None:
            data = report.data
            summary["data"] = {
                "num_blocks": data.num_blocks,
                "raw_bytes": data.raw_bytes,
                "compressed_bytes": data.compressed_bytes,
                "workers": data.workers,
            }
        return summary

    # ------------------------------------------------------------------
    # admission / recovery plumbing
    # ------------------------------------------------------------------
    def _draining_rejection(self) -> Rejection:
        return Rejection(
            code=REJECT_SHUTTING_DOWN,
            message="service is draining and admits no new requests",
            http_status=503,
        )

    def recover(self, timeout: float | None = 300.0) -> dict:
        """Replay every admitted-but-unanswered ledger entry.

        Called once at startup, before the server accepts traffic.
        Each incomplete entry — a campaign, or a solve from a
        version-1 ledger — re-enters the normal request path with
        admission skipped (it was already paid before the crash);
        a solve executes again and closes its entry, a journaled
        campaign resumes its journal.  Returns a JSON-safe summary.
        """
        summary = {"replayed": 0, "solve": 0, "campaign": 0, "failed": 0}
        if self.ledger is None:
            return summary
        for entry in self.ledger.incomplete():
            payload = dict(entry.payload)
            payload["idempotency_key"] = entry.key
            begin = (
                self.begin_campaign
                if entry.kind == "campaign"
                else self.begin_solve
            )
            with self._lock:
                self._counts["replayed"] += 1
            summary["replayed"] += 1
            summary[entry.kind] = summary.get(entry.kind, 0) + 1
            status, _ = _wait(begin(payload, _replay=True), timeout)
            if status != 200:
                summary["failed"] += 1
        return summary

    # ------------------------------------------------------------------
    # status / lifecycle
    # ------------------------------------------------------------------
    def health_payload(self) -> dict:
        """The ``/health`` body: liveness and drain state."""
        return {"ok": True, "draining": self._draining}

    def status_payload(self) -> dict:
        """The ``/status`` body: every counter the service keeps."""
        with self._lock:
            counts = dict(self._counts)
            requests = self._requests
            inflight = len(self._inflight)
        return {
            "ok": True,
            "uptime_s": round(self._clock() - self._started_at, 3),
            "draining": self._draining,
            "requests": dict(counts, total=requests),
            "inflight": inflight,
            "cache": self.cache.stats(),
            "admission": self.admission.stats(),
            "queue": self.dispatcher.stats(),
            "ledger": (
                self.ledger.stats() if self.ledger is not None else None
            ),
        }

    def shutdown(self, drain: bool = True) -> None:
        """Stop the service; with ``drain`` the queue empties first.

        Graceful shutdown admits nothing new (503 ``shutting_down``),
        lets queued solves and in-flight campaigns finish — up to the
        configured hard drain deadline, past which still-queued solves
        resolve with a 503 ``draining`` rejection — and, because
        campaign completion closes each write-ahead journal, leaves
        every journal flushed and durable.  Idempotent.
        """
        self._draining = True
        self.dispatcher.shutdown(
            drain=drain, timeout=self.config.drain_deadline_s
        )
        self._campaign_pool.shutdown(wait=drain)
        if self.ledger is not None:
            self.ledger.close()
