"""The engines' real data plane: generate, compress, and write bytes.

The campaign control plane (planning, scheduling, modelled replay,
journalling) is identical under every engine; what an engine actually
*executes* is this data plane.  On each dump iteration every rank's
partition fields are generated, sliced into fine-grained blocks,
compressed with the SZ codec, CRC32C-stamped, and written into one
shared ``.rpio`` container through the wall-clock
:class:`~repro.io.async_io.AsyncWriter`.

Two implementations share one deterministic per-rank core
(:func:`_compress_rank`: generate each field, then
:func:`~repro.compression.compress_field_blocks`) and one dump template
(:meth:`SerialDataPlane.dump`), so the same spec + seed yields
byte-identical compressed blocks (hence identical CRC32Cs) under both:

* :class:`SerialDataPlane` — everything in the calling process, strictly
  compress-then-write: the single-process reference.
* :class:`PoolDataPlane` — ranks own their data, as MPI ranks do: one
  pool task generates *and* compresses one rank's partition inside a
  worker process, and only the compressed payloads (with the worker's
  own generate/compress seconds) come back.  The parent supervises and
  streams each finished rank to the async writer, so compute,
  compression, and I/O genuinely overlap on real cores and no field
  byte ever crosses a process boundary.

The pool plane is *supervised*: every rank task runs under the
:class:`~repro.engines.supervisor.WorkerSupervisor`, which keeps a
bounded window of tasks in flight, bounds each attempt with a deadline,
detects killed/replaced pool workers, retries within the campaign's
backoff policy, speculates on stragglers, and — once the budget is gone
— runs the poisoned rank in the parent through the very same core (the
parent's only generate call).  A rank therefore yields identical bytes
whether it succeeded first try, after a retry, or via the fallback.

Container layout *order* may differ between the two (workers finish in
nondeterministic order) but the stored bytes per dataset are identical.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from ..compression import SZCompressor, compress_field_blocks
from ..io.async_io import AsyncWriter
from ..io.hdf5like import SharedFileWriter
from ..resilience.faults import FaultInjector
from ..resilience.report import ResilienceLog, SupervisorStats
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..telemetry import NULL_TRACER, NullTracer
from .spec import CampaignSpec
from .supervisor import WorkerSupervisor

__all__ = ["DataPlaneStats", "SerialDataPlane", "PoolDataPlane"]

#: Seconds the engine waits for the async writer to drain one dump.
_DRAIN_TIMEOUT_S = 120.0


@dataclass
class DataPlaneStats:
    """Wall-clock outcome of a run's real compress+dump pipeline.

    ``generate_wall_s`` and ``compress_wall_s`` are seconds spent inside
    the per-rank core, summed over ranks wherever each one ran — on the
    pool plane that is summed *worker* seconds (as each worker measured
    them), which exceed the dump's wall time as soon as workers overlap.
    """

    workers: int = 1
    num_blocks: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0
    generate_wall_s: float = 0.0
    compress_wall_s: float = 0.0
    write_wall_s: float = 0.0
    dump_wall_s: float = 0.0
    #: iteration -> published container path.
    containers: dict[int, str] = field(default_factory=dict)
    #: ``it<NNNN>/rank<R>/<field>/<block>`` -> payload CRC32C.
    block_crc32c: dict[str, int] = field(default_factory=dict)
    #: Recovery tallies of the supervised pool plane (None when serial).
    supervisor: SupervisorStats | None = None

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / max(1, self.compressed_bytes)


# ----------------------------------------------------------------------
# the per-rank core (parent and pool workers run the same function)
# ----------------------------------------------------------------------
class RankResult(NamedTuple):
    """One rank's compressed partition and what producing it cost."""

    #: ``(dataset, payload, crc32c)`` per block, in field/block order.
    payloads: list[tuple[str, bytes, int]]
    raw_bytes: int
    generate_s: float
    compress_s: float


def _rank_context(spec: CampaignSpec):
    """``(app, dumped field specs, compressor)`` for one process."""
    app = spec.data_application()
    return app, tuple(app.fields[: spec.data_fields]), SZCompressor()


def _compress_rank(
    app, field_specs, compressor, block_bytes: int, rank: int, iteration: int
) -> RankResult:
    """Generate + compress one rank's fields, one field at a time."""
    payloads: list[tuple[str, bytes, int]] = []
    raw_bytes = 0
    generate_s = compress_s = 0.0
    for fs in field_specs:
        t0 = time.perf_counter()
        values = app.generate_field(fs.name, rank, iteration)
        t1 = time.perf_counter()
        payloads.extend(
            compress_field_blocks(
                compressor,
                fs.name,
                values,
                fs.error_bound,
                block_bytes,
                prefix=f"rank{rank}/",
            )
        )
        raw_bytes += values.nbytes
        generate_s += t1 - t0
        compress_s += time.perf_counter() - t1
    return RankResult(payloads, raw_bytes, generate_s, compress_s)


# ----------------------------------------------------------------------
# pool worker (runs in a forked child)
# ----------------------------------------------------------------------
#: ``(spec, context)`` of the last task this process ran.
_WORKER_CONTEXT: tuple | None = None


def _apply_worker_fault(fault) -> None:
    """Execute one injected real-plane fault inside the pool worker.

    ``fault`` is ``None`` or ``(kind, stall_s)`` drawn deterministically
    by the parent's :meth:`~repro.resilience.faults.FaultInjector.
    worker_fault` and shipped with the task args — the worker executes
    the decision but never draws randomness itself.
    """
    if fault is None:
        return
    kind, stall_s = fault
    if kind == "kill":
        # The real thing: SIGKILL this pool child.  The pool silently
        # respawns a replacement, but the in-flight task never resolves
        # — exactly the hang the supervisor exists to catch.
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "stall":
        time.sleep(stall_s)
    elif kind == "error":
        raise RuntimeError("injected worker fault: task raised")


def _pool_compress_rank(args) -> RankResult:
    """One pool task: generate rank ``rank``'s fields and compress them.

    The application and compressor are built once per worker process and
    kept for as long as tasks carry the same (frozen) spec, so no task
    pays for one — and a worker respawned after a SIGKILL simply builds
    its own on its first task.
    """
    spec, rank, iteration, fault = args
    _apply_worker_fault(fault)
    global _WORKER_CONTEXT
    if _WORKER_CONTEXT is None or _WORKER_CONTEXT[0] != spec:
        _WORKER_CONTEXT = (spec, _rank_context(spec))
    return _compress_rank(
        *_WORKER_CONTEXT[1], spec.data_block_bytes, rank, iteration
    )


# ----------------------------------------------------------------------
class SerialDataPlane:
    """Single-process reference: compress every block, then write."""

    def __init__(
        self,
        spec: CampaignSpec,
        tracer: NullTracer = NULL_TRACER,
        *,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.spec = spec
        self.tracer = tracer
        self.app, self.field_specs, self._compressor = _rank_context(spec)
        self.ranks = spec.nodes * spec.ppn
        self.stats = DataPlaneStats(workers=1)
        self.injector = injector
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self._log: ResilienceLog | None = (
            injector.log if injector is not None else None
        )
        self._open_writer: SharedFileWriter | None = None
        self._open_async: AsyncWriter | None = None
        os.makedirs(spec.data_dir, exist_ok=True)

    def container_path(self, iteration: int) -> str:
        return os.path.join(
            self.spec.data_dir,
            f"{self.spec.solution}-it{iteration:04d}.rpio",
        )

    # -- pipeline ------------------------------------------------------
    def start(self) -> None:
        """Bring up whatever :meth:`dump` needs (nothing here)."""

    def dump(self, iteration: int) -> None:
        """Really compress and write every rank's partition.

        The one dump template: open the container, let :meth:`_produce`
        hand compressed blocks to ``ingest`` (reserve, queue the write,
        record the CRC), drain the writer, re-raise the first failed
        write, publish.  Any error on the
        way aborts the container, so nothing half-written is published
        and the plane is ready for the next ``dump()``.
        """
        self.start()
        t_dump = time.perf_counter()
        path = self.container_path(iteration)
        writer = SharedFileWriter(path)
        async_writer = AsyncWriter(
            writer, retry=self.retry, on_retry=self._on_io_retry
        )
        self._open_writer, self._open_async = writer, async_writer
        jobs = []
        stats = self.stats
        blocks0 = stats.num_blocks
        generate0, compress0 = stats.generate_wall_s, stats.compress_wall_s

        def ingest(blocks) -> None:
            for dataset, payload, checksum in blocks:
                writer.reserve(dataset, len(payload))
                jobs.append(
                    async_writer.submit(dataset, payload, checksum=checksum)
                )
                self.stats.num_blocks += 1
                self.stats.compressed_bytes += len(payload)
                self.stats.block_crc32c[
                    f"it{iteration:04d}/{dataset}"
                ] = checksum

        try:
            self._produce(iteration, ingest)
            t_write = time.perf_counter()
            async_writer.drain(timeout=_DRAIN_TIMEOUT_S)
            # A write that exhausted its retries only set ``job.error``:
            # the first one aborts the dump instead of being published
            # as a zero-byte dataset.
            for job in jobs:
                job.wait()
            async_writer.close(timeout=_DRAIN_TIMEOUT_S)
            writer.close()
        except BaseException:
            self._abort_open_container()
            raise
        self._open_writer = self._open_async = None
        now = time.perf_counter()
        self.stats.write_wall_s += now - t_write
        self.stats.dump_wall_s += now - t_dump
        self.stats.containers[iteration] = path
        if self.tracer.enabled:
            self.tracer.event(
                "engine.dump",
                iteration=iteration,
                wall_s=now - t_dump,
                blocks=stats.num_blocks - blocks0,
                generate_s=stats.generate_wall_s - generate0,
                compress_s=stats.compress_wall_s - compress0,
            )
            self.tracer.counter("engine.dump").inc()

    def _produce(self, iteration: int, ingest) -> None:
        """Strictly compress-then-write: every rank, then one ingest."""
        blocks: list[tuple[str, bytes, int]] = []
        for rank in range(self.ranks):
            blocks.extend(self._account(self._rank_result(iteration, rank)))
        ingest(blocks)

    def _rank_result(self, iteration: int, rank: int) -> RankResult:
        """Generate + compress one rank in this process.

        The serial dump's per-rank body — and the pool plane's
        ``rank-serial`` fallback, which is what makes fallback bytes
        identical to the pool path.
        """
        return _compress_rank(
            self.app,
            self.field_specs,
            self._compressor,
            self.spec.data_block_bytes,
            rank,
            iteration,
        )

    def _account(self, result: RankResult) -> list[tuple[str, bytes, int]]:
        """Tally one rank's cost; returns its payloads for ``ingest``."""
        self.stats.raw_bytes += result.raw_bytes
        self.stats.generate_wall_s += result.generate_s
        self.stats.compress_wall_s += result.compress_s
        return result.payloads

    def _on_io_retry(self, job, exc: BaseException) -> None:
        """Count one wall-clock write retry in the campaign log."""
        if self._log is not None:
            self._log.record_retry()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Orderly shutdown (idempotent)."""
        self._abort_open_container()

    def abort(self) -> None:
        """Abnormal shutdown: never publish a half-written container."""
        self._abort_open_container()

    def _abort_open_container(self) -> None:
        async_writer, self._open_async = self._open_async, None
        writer, self._open_writer = self._open_writer, None
        if async_writer is not None:
            try:
                async_writer.close(timeout=5.0)
            except (TimeoutError, RuntimeError):  # pragma: no cover
                pass
        if writer is not None:
            writer.abort()


class PoolDataPlane(SerialDataPlane):
    """Per-rank generate + compress on worker processes, I/O overlapped.

    For each dump iteration the parent hands the pool one task per rank
    (:func:`_pool_compress_rank`) and does nothing but supervise and
    write.  Each task runs under the
    :class:`~repro.engines.supervisor.WorkerSupervisor`: finished ranks
    stream their compressed payloads onto the async writer while the
    workers are busy with later ranks, killed or hung workers are
    detected and the task re-executed within the campaign's retry
    budget, and an unsalvageable rank is generated and compressed
    serially in the parent — so a dump completes (with identical bytes)
    even when the pool misbehaves.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        tracer: NullTracer = NULL_TRACER,
        *,
        injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(spec, tracer, injector=injector, retry=retry)
        self.workers = spec.workers or min(
            self.ranks, os.cpu_count() or 1
        )
        self.stats.workers = self.workers
        # One tally: the campaign log's, when there is a campaign log.
        self.stats.supervisor = (
            SupervisorStats() if self._log is None else self._log.supervisor
        )
        # Same backoff shape as the write policy, but the attempt cap is
        # the spec's task knob: first launch + max_task_retries re-runs.
        self._task_retry = dataclasses.replace(
            self.retry, max_attempts=spec.max_task_retries + 1
        )
        self._pool = None
        self._lifecycle_lock = threading.Lock()

    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._pool is None:
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(self.workers)

    def _worker_pids(self) -> tuple[int, ...]:
        """Current pool-child PIDs (empty once the pool is gone)."""
        pool = self._pool
        if pool is None:
            return ()
        return tuple(
            proc.pid
            for proc in getattr(pool, "_pool", ())
            if proc.pid is not None
        )

    # -- pipeline ------------------------------------------------------
    def _produce(self, iteration: int, ingest) -> None:
        """Submit every rank to the pool; stream finished ranks out."""

        def launch(rank: int, attempt: int):
            fault = None
            if self.injector is not None:
                fault = self.injector.worker_fault(
                    rank, iteration, attempt
                )
            return self._pool.apply_async(
                _pool_compress_rank,
                ((self.spec, rank, iteration, fault),),
            )

        def fallback(rank: int) -> RankResult:
            # The same deterministic core, in the parent: bytes
            # identical to the pool path.
            if self._log is not None:
                self._log.record_fallback("rank-serial")
            return self._rank_result(iteration, rank)

        supervisor = WorkerSupervisor(
            launch=launch,
            ingest=lambda rank, result: ingest(self._account(result)),
            fallback=fallback,
            retry=self._task_retry,
            deadline_s=self.spec.task_deadline_s,
            speculative_frac=self.spec.speculative_frac,
            worker_pids=self._worker_pids,
            stats=self.stats.supervisor,
            tracer=self.tracer,
            iteration=iteration,
        )
        for rank in range(self.ranks):
            supervisor.submit(rank)
        supervisor.wait_all()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        # Serialized against abort(): engine teardown may race a signal
        # handler or watchdog aborting the same plane, and pool.close()
        # on a terminated pool (or vice versa) is undefined.
        with self._lifecycle_lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                if self.stats.supervisor.recovered:
                    # A task whose worker died never resolves, so its
                    # entry sits in the pool's result cache forever and
                    # a graceful close() would join() until the end of
                    # time.  Every result was already ingested per dump
                    # (the async writer drained), so once the supervisor
                    # recovered *anything* there is nothing left a
                    # graceful shutdown could flush — terminate.
                    pool.terminate()
                else:
                    pool.close()
                pool.join()
            super().close()

    def abort(self) -> None:
        with self._lifecycle_lock:
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.terminate()
                pool.join()
            super().abort()
