"""The engines' real data plane: generate, compress, and write bytes.

The campaign control plane (planning, scheduling, modelled replay,
journalling) is identical under every engine; what an engine actually
*executes* is this data plane.  On each dump iteration every rank's
partition fields are generated, sliced into fine-grained blocks,
compressed with the SZ codec, CRC32C-stamped, and written into one
shared ``.rpio`` container through the wall-clock
:class:`~repro.io.async_io.AsyncWriter`.

Two implementations share one deterministic core — a generation step
(:func:`_generate_fields`) and a per-field compress step
(:meth:`RankResult.add_field`, i.e.
:func:`~repro.compression.compress_field_blocks` plus the accounting),
which :func:`_compress_rank` runs one after the other for one rank — and
one dump template (:meth:`SerialDataPlane.dump`), so the same spec + seed
yields byte-identical compressed blocks (hence identical CRC32Cs) under
both:

* :class:`SerialDataPlane` — everything in the calling process: one
  helper thread generates the next field while the calling thread
  compresses the current one, and every write still comes after the
  last compression.
* :class:`PoolDataPlane` — ranks own their data, as MPI ranks do: one
  task generates *and* compresses one rank's partition inside a worker
  process, and only the compressed payloads (with the worker's own
  generate/compress seconds) come back.  The parent supervises and
  streams each finished rank to the async writer, so compute,
  compression, and I/O genuinely overlap on real cores and no field
  byte ever crosses a process boundary.

The pool plane's workers belong to a
:class:`~repro.engines.supervisor.WorkerSupervisor`, which sends a task
only to an idle worker, bounds each attempt with a deadline, retries
exactly the task a dead worker held, retries within the campaign's
backoff policy (a straggler is retried only once it misses the deadline;
the late attempt still races the retry), and — once the budget is gone
— runs the poisoned rank in the parent through the very same core (the
parent's only generate call).  A rank therefore yields identical bytes
whether it succeeded first try, after a retry, or via the fallback.

Container layout *order* may differ between the two (workers finish in
nondeterministic order) but the stored bytes per dataset are identical.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..compression import SZCompressor, compress_field_blocks
from ..io.async_io import AsyncWriter
from ..io.hdf5like import SharedFileWriter
from ..resilience.faults import FaultInjector
from ..resilience.report import SupervisorStats
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

    ``generate_wall_s`` and ``compress_wall_s`` are seconds spent in the
    generation and compress steps, summed over fields wherever each one
    ran.  They overlap on both planes — the serial plane generates one
    field ahead on a helper thread, and the pool plane's are summed
    *worker* seconds — so their sum may exceed ``dump_wall_s``.
    ``generate_cpu_s`` and ``compress_cpu_s`` are the CPU seconds of the
    thread that ran each step (``time.thread_time``), summed the same
    way: a step's wall minus its CPU is time it waited, on the
    interpreter lock or on a core.  Only published dumps are counted.
    """

    workers: int = 1
    num_blocks: int = 0
    raw_bytes: int = 0
    compressed_bytes: int = 0
    generate_wall_s: float = 0.0
    compress_wall_s: float = 0.0
    generate_cpu_s: float = 0.0
    compress_cpu_s: float = 0.0
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
@dataclass
class RankResult:
    """Compressed blocks of one or more ranks and what producing them cost.

    One rank's result is what a pool worker sends back; the serial plane
    tallies a whole dump in one.
    """

    #: ``(dataset, payload, crc32c)`` per block, in rank/field/block order.
    payloads: list[tuple[str, bytes, int]] = field(default_factory=list)
    raw_bytes: int = 0
    generate_s: float = 0.0
    compress_s: float = 0.0
    generate_cpu_s: float = 0.0
    compress_cpu_s: float = 0.0

    def add_field(
        self,
        compressor,
        block_bytes: int,
        rank: int,
        fs,
        values,
        generate_s: float,
        generate_cpu_s: float,
    ) -> None:
        """The per-field compress step: block, compress and stamp
        ``values`` (rank ``rank``'s field ``fs``), and tally the cost."""
        t0 = time.perf_counter()
        c0 = time.thread_time()
        self.payloads.extend(
            compress_field_blocks(
                compressor,
                fs.name,
                values,
                fs.error_bound,
                block_bytes,
                prefix=f"rank{rank}/",
            )
        )
        self.compress_cpu_s += time.thread_time() - c0
        self.compress_s += time.perf_counter() - t0
        self.raw_bytes += values.nbytes
        self.generate_s += generate_s
        self.generate_cpu_s += generate_cpu_s


def _rank_context(spec: CampaignSpec):
    """``(app, dumped field specs, compressor)`` for one process."""
    app = spec.data_application()
    return app, tuple(app.fields[: spec.data_fields]), SZCompressor()


def _generate_fields(app, field_specs, ranks, iteration: int):
    """The generation step: ``(rank, field spec, values, generate_s,
    generate_cpu_s)`` for every field of every rank in ``ranks``, in
    (rank, field) order; the CPU seconds are the generating thread's."""
    for rank in ranks:
        for fs in field_specs:
            t0 = time.perf_counter()
            c0 = time.thread_time()
            values = app.generate_field(fs.name, rank, iteration)
            cpu_s = time.thread_time() - c0
            yield rank, fs, values, time.perf_counter() - t0, cpu_s


def _compress_rank(
    app, field_specs, compressor, block_bytes: int, rank: int, iteration: int
) -> RankResult:
    """Generate + compress one rank's fields, one field at a time."""
    result = RankResult()
    for item in _generate_fields(app, field_specs, (rank,), iteration):
        result.add_field(compressor, block_bytes, *item)
    return result


# ----------------------------------------------------------------------
# worker task (runs in a forked child)
# ----------------------------------------------------------------------
#: ``(spec, context)`` of the last task this process ran.
_WORKER_CONTEXT: tuple | None = None


def _pool_compress_rank(args) -> RankResult:
    """One worker task: generate rank ``rank``'s fields, compress them.

    The application and compressor are built once per worker process and
    kept for as long as tasks carry the same (frozen) spec, so no task
    pays for one — and a worker respawned after a SIGKILL simply builds
    its own on its first task.  ``fault`` is ``None`` or the ``(kind,
    stall_s)`` the parent's :meth:`~repro.resilience.faults.FaultInjector.
    worker_fault` drew: the worker executes the decision, it never draws
    randomness itself.
    """
    spec, rank, iteration, fault = args
    kind, stall_s = fault or (None, 0.0)
    if kind == "kill":
        # The real thing: the parent sees end-of-file on this worker's
        # pipe and retries exactly the task it held.
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "stall":
        time.sleep(stall_s)
    elif kind == "error":
        raise RuntimeError("injected worker fault: task raised")
    global _WORKER_CONTEXT
    if _WORKER_CONTEXT is None or _WORKER_CONTEXT[0] != spec:
        _WORKER_CONTEXT = (spec, _rank_context(spec))
    return _compress_rank(
        *_WORKER_CONTEXT[1], spec.data_block_bytes, rank, iteration
    )


# ----------------------------------------------------------------------
class SerialDataPlane:
    """One process: generate one field ahead, compress, then write."""

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
        hand compressed results to ``ingest`` (reserve, queue the write,
        record the CRC), drain the writer, re-raise the first failed
        write, publish.  Any error on the way aborts the container, so
        nothing half-written is published and the plane is ready for the
        next ``dump()``.  The dump is tallied on its own and folded into
        :attr:`stats` only once its container is published.
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
        done = DataPlaneStats()

        def ingest(result: RankResult) -> None:
            for dataset, payload, checksum in result.payloads:
                writer.reserve(dataset, len(payload))
                jobs.append(
                    async_writer.submit(dataset, payload, checksum=checksum)
                )
                done.compressed_bytes += len(payload)
                done.block_crc32c[f"it{iteration:04d}/{dataset}"] = checksum
            done.num_blocks += len(result.payloads)
            done.raw_bytes += result.raw_bytes
            done.generate_wall_s += result.generate_s
            done.compress_wall_s += result.compress_s
            done.generate_cpu_s += result.generate_cpu_s
            done.compress_cpu_s += result.compress_cpu_s

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
        stats = self.stats
        stats.num_blocks += done.num_blocks
        stats.raw_bytes += done.raw_bytes
        stats.compressed_bytes += done.compressed_bytes
        stats.generate_wall_s += done.generate_wall_s
        stats.compress_wall_s += done.compress_wall_s
        stats.generate_cpu_s += done.generate_cpu_s
        stats.compress_cpu_s += done.compress_cpu_s
        stats.write_wall_s += now - t_write
        stats.dump_wall_s += now - t_dump
        stats.block_crc32c.update(done.block_crc32c)
        stats.containers[iteration] = path
        if self.tracer.enabled:
            self.tracer.event(
                "engine.dump",
                iteration=iteration,
                wall_s=now - t_dump,
                blocks=done.num_blocks,
                generate_s=done.generate_wall_s,
                compress_s=done.compress_wall_s,
                generate_cpu_s=done.generate_cpu_s,
                compress_cpu_s=done.compress_cpu_s,
            )
            self.tracer.counter("engine.dump").inc()

    def _produce(self, iteration: int, ingest) -> None:
        """Every rank's fields in (rank, field) order, then one ingest.

        A helper thread generates field *k+1* while this thread
        compresses field *k*: a lookahead of exactly one field, since the
        next generation is handed over only once a compression ends.  An
        error on either side waits for at most that one field, then
        re-raises here, and the helper is gone when this returns.
        """
        result = RankResult()
        fields = _generate_fields(
            self.app, self.field_specs, range(self.ranks), iteration
        )
        with ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-generate"
        ) as helper:
            pending = helper.submit(next, fields, None)
            while (item := pending.result()) is not None:
                pending = helper.submit(next, fields, None)
                result.add_field(
                    self._compressor, self.spec.data_block_bytes, *item
                )
        ingest(result)

    def _rank_result(self, iteration: int, rank: int) -> RankResult:
        """Generate + compress one rank in this process, sequentially.

        The pool plane's ``rank-serial`` fallback, which is what makes
        fallback bytes identical to the pool path.
        """
        return _compress_rank(
            self.app,
            self.field_specs,
            self._compressor,
            self.spec.data_block_bytes,
            rank,
            iteration,
        )

    def _on_io_retry(self, job, exc: BaseException) -> None:
        """Count one wall-clock write retry in the campaign log."""
        if self.injector is not None:
            self.injector.record_retry(block=job.name, attempt=job.attempts)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut down (idempotent); a half-written container is never
        published.  :meth:`abort` is the same teardown."""
        self._abort_open_container()

    abort = close

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

    For each dump iteration the parent runs one task per rank
    (:func:`_pool_compress_rank`) on its supervisor's workers and does
    nothing but supervise and write: finished ranks stream their
    compressed payloads onto the async writer while the workers are busy
    with later ranks, and a dump completes (with identical bytes) even
    when workers misbehave — see the module docstring.  Each worker runs
    the core sequentially, with no generating helper: ``min(ranks,
    cpus)`` workers already fill every core.
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
        self.workers = spec.workers or min(self.ranks, os.cpu_count() or 1)
        self.stats.workers = self.workers
        # One tally: the campaign log's, when there is a campaign log.
        self.stats.supervisor = (
            SupervisorStats() if injector is None else injector.log.supervisor
        )
        self._supervisor: WorkerSupervisor | None = None

    def start(self) -> None:
        """Fork the workers (idempotent), before any writer thread exists."""
        if self._supervisor is None:
            self._supervisor = WorkerSupervisor(
                _pool_compress_rank,
                self.workers,
                # Same backoff shape as the write policy, but the attempt
                # cap is the spec's task knob: first send + re-runs.
                retry=dataclasses.replace(
                    self.retry, max_attempts=self.spec.max_task_retries + 1
                ),
                deadline_s=self.spec.task_deadline_s,
                stats=self.stats.supervisor,
                tracer=self.tracer,
            )

    # -- pipeline ------------------------------------------------------
    def _produce(self, iteration: int, ingest) -> None:
        """One task per rank on the workers; stream finished ranks out."""

        def args(rank: int, attempt: int):
            fault = None
            if self.injector is not None:
                fault = self.injector.worker_fault(rank, iteration, attempt)
            return self.spec, rank, iteration, fault

        def fallback(rank: int) -> RankResult:
            # The same deterministic core, in the parent: bytes
            # identical to the pool path.
            # Tally only: the supervisor emits this fallback's event,
            # injector or not.
            if self.injector is not None:
                self.injector.log.record_fallback("rank-serial")
            return self._rank_result(iteration, rank)

        self._supervisor.run(
            range(self.ranks),
            args=args,
            ingest=lambda rank, result: ingest(result),
            fallback=fallback,
            iteration=iteration,
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        # Engine teardown may race a signal handler or watchdog aborting
        # the same plane: the supervisor's close() serializes the two.
        if self._supervisor is not None:
            self._supervisor.close()
        super().close()

    abort = close
