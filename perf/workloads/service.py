"""The scheduling service under closed-loop load, cold and hot.

The server is the real ``python -m repro serve`` child process with its
ledger on.  Load comes from two ``ServiceClient``s in two threads, each
sending its next request when the previous reply arrived (callers that
wait for a reply).  The timed loop runs in short slices so that the
reference kernel can run between them while the clients pause.
"""

from __future__ import annotations

import atexit
import itertools
import json
import subprocess
import sys
import threading
import time

import numpy as np

from harness import Calibrator, p50, percentile, timed_loop
from spans import SpanRecorder, StageTable

from repro.core import (
    Interval,
    Job,
    ProblemInstance,
    instance_json_dict,
    list_algorithms,
    solve,
)
from repro.service import (
    AdmissionController,
    MemoCache,
    RequestLedger,
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    SolveDispatcher,
    parse_solve_payload,
    solve_request_key,
)

from .base import CheckResult, TraceResult, Workload

_CLIENTS = 2
_SLICE_S = 0.8
#: Share of the replies held to an in-process ``solve()``.
_SAMPLE = 0.05
_CHECK_BUDGET_S = 1.5
_BANNER = "repro service listening on http://"
_OPEN_QUOTA = dict(quota_rate=1e9, quota_burst=1e9)


def make_instance(rng: np.random.Generator, jobs: int) -> ProblemInstance:
    """``jobs`` jobs between 3 main-thread and 2 background obstacles."""
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


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, work, tag: str) -> None:
        self.ledger = str(work / f"{tag}.ledger")
        self._log_path = work / f"{tag}.log"
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--ledger",
                self.ledger,
                "--quota-rate",
                "1e9",
                "--quota-burst",
                "1e9",
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        atexit.register(self.stop)
        try:
            self.port = self._wait_for_banner()
        except BaseException:
            self.stop()
            raise

    def _wait_for_banner(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self._log_path.read_text(errors="replace")
            if _BANNER in text:
                address = text.split(_BANNER, 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited early:\n{text}")
            time.sleep(0.01)
        raise RuntimeError("repro serve printed no banner")

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port)

    def stop(self) -> None:
        """Graceful drain, then whatever it takes (idempotent)."""
        proc = self.proc
        if proc.poll() is None:
            try:
                self.client().shutdown()
                proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self._log.close()
        atexit.unregister(self.stop)


class _ServiceWorkload(Workload):
    #: Whether replies carry the server's own queue-wait and solve
    #: times for *this* request (a ledger hit replays an old reply).
    server_timing = True

    def __init__(self, seed, work, smoke=False) -> None:
        super().__init__(seed, work, smoke)
        self.server: Server | None = None
        self.algorithms = list_algorithms()
        self._setups = 0
        self._slices = 0
        self.replies = 0
        #: Requests each client has built; offset so that the two are
        #: never at the same point of the algorithm x size cycle.
        self._built = [27 * i for i in range(_CLIENTS)]
        #: Request + reply JSON bytes, per client thread.
        self.wire_bytes = [0] * _CLIENTS
        #: ``(payload, reply body)`` of the sampled requests.
        self.sampled: list[tuple[dict, dict]] = []
        self.failures: list[str] = []
        self.recorder: SpanRecorder | None = None
        self._op_ids = itertools.count()

    def setup(self) -> None:
        self._setups += 1
        self.server = Server(self.work, f"server{self._setups}")
        self.server.client().wait_healthy()

    def release(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            server.stop()

    def _rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def _payload(self, rng: np.random.Generator, index: int) -> dict:
        """Request ``index`` of a cycle over the six heuristics and the
        job counts 8..16: every seed sends the same mix of work, only
        the drawn durations and obstacles differ."""
        algorithms = self.algorithms
        return {
            "instance": instance_json_dict(
                make_instance(rng, 8 + (index // len(algorithms)) % 9)
            ),
            "algorithm": algorithms[index % len(algorithms)],
        }

    def _next_request(self, rng, index: int) -> tuple[dict, object]:
        """The next payload, and a tag ``_reply_ok`` gets back."""
        raise NotImplementedError

    def _reply_ok(self, tag, body: dict) -> bool:
        raise NotImplementedError

    def _wire_bytes(self, tag, payload: dict, body: dict) -> int:
        """JSON bytes of one request and its reply."""
        return len(json.dumps(payload)) + len(json.dumps(body))

    def _client_loop(self, thread: int, deadline: float, out: list) -> None:
        rng = self._rng(1, self._slices, thread)
        client = self.server.client()
        recorder = self.recorder
        while time.perf_counter() < deadline:
            payload, tag = self._next_request(rng, self._built[thread])
            self._built[thread] += 1
            if recorder is None:
                t0 = time.perf_counter()
                status, body = client.solve(payload)
                t1 = time.perf_counter()
            else:
                with recorder.span(
                    "service.request", op=next(self._op_ids)
                ) as row:
                    status, body = client.solve(payload)
                t0, t1 = row[4], row[5]
                timing = self.server_timing and body.get("timing")
                if timing:
                    # The server's own account of where the time went.
                    waited = t0 + timing["queue_wait_s"]
                    recorder.add("service.queue_wait", row, t0, waited)
                    recorder.add(
                        "core.solve", row, waited, waited + timing["solve_s"]
                    )
            out.append(t1 - t0)
            self.wire_bytes[thread] += self._wire_bytes(tag, payload, body)
            if status != 200 or not self._reply_ok(tag, body):
                self.failures.append(
                    f"HTTP {status}: {json.dumps(body)[:200]}"
                )
            elif rng.random() < _SAMPLE:
                self.sampled.append((payload, body))

    def op(self) -> list[float]:
        """One slice: both clients send until the slice is over."""
        self._slices += 1
        deadline = time.perf_counter() + (0.1 if self.smoke else _SLICE_S)
        per_thread: list[list[float]] = [[] for _ in range(_CLIENTS)]
        threads = [
            threading.Thread(
                target=self._client_loop, args=(i, deadline, per_thread[i])
            )
            for i in range(_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        latencies = [lat for part in per_thread for lat in part]
        self.replies += len(latencies)
        return latencies

    def io_bytes_per_op(self) -> float:
        return sum(self.wire_bytes) / self.replies

    def check(self) -> CheckResult:
        """Every reply was a correct 200; a sample matches ``solve()``."""
        result = CheckResult(
            attempted=self.replies,
            failed=len(self.failures),
            notes=self.failures[:10],
        )
        makespans: dict[str, float] = {}
        deadline = time.perf_counter() + _CHECK_BUDGET_S
        for payload, body in self.sampled:
            key = body["key"]
            if key not in makespans:
                if time.perf_counter() > deadline:
                    continue
                work = parse_solve_payload(payload)
                makespans[key] = solve(work.instance, work.algorithm).makespan
            result.expect(
                body["solution"]["makespan"] == makespans[key],
                f"request {key}: served makespan "
                f"{body['solution']['makespan']} != solve() {makespans[key]}",
            )
        return result

    # -- traced run ----------------------------------------------------
    def _status(self) -> dict:
        status, body = self.server.client().status()
        if status != 200:
            raise RuntimeError(f"/status answered HTTP {status}")
        return body

    def trace(self, seconds: float, cal: Calibrator) -> TraceResult:
        untraced_p50 = self.untraced_p50(seconds / 4, cal)
        before = self._status()
        self.recorder = SpanRecorder()
        try:
            traced = timed_loop(self.op, seconds / 2, cal, min_ops=2)
        finally:
            recorder, self.recorder = self.recorder, None
        after = self._status()
        latencies = [lat for s in traced for lat in s.latencies_s]
        table = StageTable(recorder, "service.request")

        def delta(*path: str) -> float:
            a, b = after, before
            for part in path:
                a, b = a[part], b[part]
            return float(a - b)

        batches = delta("queue", "batches")
        metrics = {
            "service.solve_rps": len(latencies)
            / sum(s.wall_s for s in traced),
            "service.solve_p50_ms": 1e3 * p50(latencies),
            "service.solve_p90_ms": 1e3 * percentile(latencies, 90),
            "service.solve_p99_ms": 1e3 * percentile(latencies, 99),
            "service.queue_wait_ms": 1e3
            * table.total("service.queue_wait")
            / table.ops,
            "core.solve_ms": 1e3 * table.total("core.solve") / table.ops,
            "service.cache_hits": delta("requests", "cache_hits"),
            "service.ledger_hits": delta("requests", "ledger_hits"),
            "service.rejected": delta("requests", "rejected"),
            "service.errors": delta("requests", "errors"),
            "service.batches": batches,
            "service.mean_batch_size": (
                delta("queue", "dispatched") / batches if batches else 0.0
            ),
            **table.trace_metrics(untraced_p50),
        }
        metrics.update(self._component_probes())
        return TraceResult(metrics, recorder, table)

    def _component_probes(self) -> dict[str, float]:
        """Each service component called directly, without the server."""
        clock = time.perf_counter
        rng = self._rng(2)
        payloads = [self._payload(rng, i) for i in range(6 if self.smoke else 48)]
        works = [parse_solve_payload(p) for p in payloads]
        solutions = {}

        def timed(fn, items, scale):
            samples = []
            for item in items:
                t0 = clock()
                fn(item)
                samples.append((clock() - t0) * scale)
            return p50(samples)

        client = self.server.client()
        metrics = {
            "service.http_roundtrip_ms": timed(
                lambda _: client.health(), range(50), 1e3
            ),
            "service.parse_ms": timed(parse_solve_payload, payloads, 1e3),
            "service.key_ms": timed(
                lambda w: solve_request_key(
                    w.instance, w.algorithm, w.engine, w.time_limit
                ),
                works,
                1e3,
            ),
        }

        def run_service(tag: str, ledger: bool) -> tuple[float, float]:
            """p50 of a cold and of a memo-hit in-process solve."""
            service = SchedulingService(
                ServiceConfig(
                    ledger_path=(
                        str(self.work / f"probe-{tag}.ledger")
                        if ledger
                        else None
                    ),
                    **_OPEN_QUOTA,
                )
            )
            try:
                cold, hit = [], []
                for payload in payloads:
                    t0 = clock()
                    status, body = service.solve(payload)
                    cold.append((clock() - t0) * 1e3)
                    if status != 200:
                        raise RuntimeError(f"in-process solve: {body}")
                    solutions[body["key"]] = body["solution"]
                for payload in payloads:
                    t0 = clock()
                    service.solve(payload)
                    hit.append((clock() - t0) * 1e3)
            finally:
                service.shutdown()
            return p50(cold), p50(hit)

        cold_ledger, hit_ledger = run_service("on", ledger=True)
        cold_plain, _ = run_service("off", ledger=False)
        metrics.update(
            {
                "service.inprocess_cold_ms": cold_ledger,
                "service.inprocess_hit_ms": hit_ledger,
                "service.ledger_overhead_frac": cold_ledger / cold_plain - 1.0,
            }
        )

        cache = MemoCache(capacity=256)
        keyed = [(w.key, solutions[w.key]) for w in works]
        metrics["service.cache_put_us"] = timed(
            lambda kv: cache.put(*kv), keyed, 1e6
        )
        metrics["service.cache_get_us"] = timed(
            lambda kv: cache.get(kv[0]), keyed, 1e6
        )
        admission = AdmissionController(rate=1e9, burst=1e9)
        metrics["service.admit_us"] = timed(
            lambda _: admission.admit("default"), range(200), 1e6
        )

        ledger = RequestLedger(self.work / "probe-append.ledger")
        try:
            body = {"ok": True, "solution": keyed[0][1]}

            def append(pair):
                index, payload = pair
                ledger.record_open(f"k{index}", "solve", payload)
                ledger.record_close(f"k{index}", 200, body)

            metrics["service.ledger_append_ms"] = timed(
                append, list(enumerate(payloads)), 1e3
            )
        finally:
            ledger.close()

        dispatcher = SolveDispatcher(lambda work: {}, workers=2)
        try:
            metrics["service.dispatch_roundtrip_ms"] = timed(
                lambda w: dispatcher.try_submit(w).result(timeout=30),
                works,
                1e3,
            )
        finally:
            dispatcher.shutdown()
        return metrics


class ServiceCold(_ServiceWorkload):
    """Every request is a new instance: solver, batch window and ledger
    fsync do the work; the memo cache is only streamed through."""

    name = "service_cold"

    def _next_request(self, rng, index: int):
        return self._payload(rng, index), None

    def _reply_ok(self, tag, body) -> bool:
        return body.get("cache") == "miss"

    def _component_probes(self) -> dict[str, float]:
        metrics = super()._component_probes()
        rng = self._rng(3)
        instances = [
            make_instance(rng, 8 + i % 9) for i in range(3 if self.smoke else 27)
        ]
        for algorithm in self.algorithms:
            samples = []
            for instance in instances:
                t0 = time.perf_counter()
                solve(instance, algorithm)
                samples.append((time.perf_counter() - t0) * 1e3)
            metrics[f"core.solve_ms.{algorithm.replace('+', '_')}"] = p50(
                samples
            )
        return metrics


class ServiceHot(_ServiceWorkload):
    """Requests draw from a primed hot set that fits the memo cache:
    80 % are memo hits, 20 % bypass the cache (``"cache": false``) and
    are answered from the settled ledger entry.  The solver idles."""

    name = "service_hot"
    server_timing = False

    def setup(self) -> None:
        super().setup()
        rng = self._rng(0)
        size = 16 if self.smoke else 100
        self.hot = [self._payload(rng, i) for i in range(size)]
        self.primed: list[dict | None] = [None] * size
        self._sizes: dict[int, int] = {}

        def prime(thread: int) -> None:
            client = self.server.client()
            for i in range(thread, size, _CLIENTS):
                status, body = client.solve(self.hot[i])
                if status == 200:
                    self.primed[i] = body["solution"]

        threads = [
            threading.Thread(target=prime, args=(i,)) for i in range(_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if None in self.primed:
            raise RuntimeError("priming the hot set failed")

    def _next_request(self, rng, index: int):
        draw = int(rng.integers(len(self.hot)))
        payload = self.hot[draw]
        if rng.random() < 0.2:
            payload = dict(payload, cache=False)
        return payload, draw

    def _reply_ok(self, draw, body) -> bool:
        return body.get("solution") == self.primed[draw]

    def _wire_bytes(self, draw, payload, body) -> int:
        """Measured once per hot instance: at 1-2 ms a request, encoding
        every reply again would be a tenth of the clients' work."""
        size = self._sizes.get(draw)
        if size is None:
            size = self._sizes[draw] = super()._wire_bytes(draw, payload, body)
        return size
