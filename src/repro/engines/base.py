"""The one `ExecutionEngine` and the campaign driver.

An execution engine is the thing that actually *runs* a campaign
described by a :class:`~repro.engines.spec.CampaignSpec`.  There is one
engine class, driven through one protocol by :func:`run_campaign`::

    prepare() -> run_iteration(i) ... -> finish() -> finalize() -> report()

Every engine owns the modelled **control plane** — the
:class:`~repro.framework.orchestrator.CampaignRunner` that plans,
schedules, and replays every iteration, fires fault injection, and
produces the write-ahead journal records.  That is what makes the
backends interchangeable: the journal records, the
:class:`~repro.framework.orchestrator.CampaignResult`, and every report
are identical under every engine, so ``--journal``/``--resume`` and the
fault hooks work the same everywhere.  Engines differ only in the
**data plane** (:mod:`~repro.engines.dataplane`) — whether each dump
iteration really generates, compresses, and writes bytes, and on how
many processes — so an engine name (``sim``, ``process``) only picks a
data plane from one constant table.

:func:`run_campaign` is the single entry point the CLI and library
callers use.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

from ..durability.journal import CampaignJournal, JournalError
from ..framework.orchestrator import (
    CampaignResult,
    CampaignRunner,
    IterationRecord,
)
from ..resilience.faults import FaultInjector
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..resilience.spec import parse_fault_spec
from ..telemetry import NULL_TRACER, NullTracer
from .dataplane import DataPlaneStats, PoolDataPlane, SerialDataPlane
from .spec import ENGINES, CampaignSpec

__all__ = [
    "EngineError",
    "EngineReport",
    "ExecutionEngine",
    "get_engine",
    "run_campaign",
]


class EngineError(RuntimeError):
    """An execution engine failed or was misused."""


@dataclass
class EngineReport:
    """What one engine run produced: modelled result + wall-clock facts.

    ``result`` (the modelled :class:`CampaignResult`) is structurally
    identical across engines for the same spec + seed; ``wall_time_s``
    and ``data`` describe what *this* backend physically did and are the
    only parts allowed to differ.
    """

    engine: str
    spec: CampaignSpec
    result: CampaignResult
    wall_time_s: float
    #: Real compress+dump pipeline stats; None when the data plane was off.
    data: DataPlaneStats | None = None
    #: The open write-ahead journal, when the run was journalled.  The
    #: caller owns closing it (see :meth:`close`).
    journal: CampaignJournal | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    @property
    def modelled_time_s(self) -> float:
        """The campaign's total *modelled* (simulated) time."""
        return float(self.result.total_time)

    @property
    def block_crc32c(self) -> dict[str, int]:
        """Per-block payload CRC32Cs ({} when the data plane was off)."""
        return {} if self.data is None else dict(self.data.block_crc32c)

    def close(self) -> None:
        """Close the attached journal, if any (idempotent)."""
        journal, self.journal = self.journal, None
        if journal is not None:
            journal.close()


#: Per engine name: what really generates, compresses and writes a
#: dump's bytes, and whether it runs even without a ``data_dir`` (the
#: containers then go to a temporary directory that finalize/abort
#: remove).
_DATA_PLANES: dict[str, tuple[type[SerialDataPlane], bool]] = {
    "sim": (SerialDataPlane, False),
    "process": (PoolDataPlane, True),
}


class ExecutionEngine:
    """One campaign execution backend — the one engine class.

    Every engine runs the same modelled control plane (its
    :class:`CampaignRunner`, which is also where the journal hooks get
    their byte-identical payloads) and differs only in the data plane
    ``spec.engine`` picks.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        tracer: NullTracer = NULL_TRACER,
        injector: FaultInjector | None = None,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        self.spec = spec
        self.tracer = tracer
        self.injector = injector
        self.retry = retry
        self.runner = CampaignRunner(
            spec.application(),
            spec.cluster_spec(),
            spec.resolved_config(),
            solution=spec.solution,
            seed=spec.seed,
            tracer=tracer.bind(solution=spec.solution),
            injector=injector,
            retry=retry,
        )
        self.result: CampaignResult | None = None
        self.dataplane: SerialDataPlane | None = None
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        self._finished = False

    # -- protocol ------------------------------------------------------
    def prepare(self) -> None:
        """Start a fresh result; bring up the data plane if enabled."""
        self.result = self.runner.start_result()
        self._finished = False
        spec = self.spec
        dataplane_cls, always_executes = _DATA_PLANES[spec.engine]
        if spec.data_dir is None and always_executes:
            self._tmpdir = tempfile.TemporaryDirectory(
                prefix="repro-engine-", ignore_cleanup_errors=True
            )
            spec = dataclasses.replace(spec, data_dir=self._tmpdir.name)
        if spec.data_dir is not None:
            self.dataplane = dataplane_cls(
                spec,
                tracer=self.tracer,
                injector=self.injector,
                retry=self.retry,
            )
            # Pay any startup cost (forking workers) once, up front.
            self.dataplane.start()

    def run_iteration(self, iteration: int) -> IterationRecord:
        """One modelled iteration; dumps also hit the real data plane."""
        if self.result is None:
            raise EngineError("run_iteration() before prepare()")
        record = self.runner.run_one(iteration)
        self.result.records.append(record)
        if self.dataplane is not None and record.dumped:
            self.dataplane.dump(iteration)
        return record

    def finish(self) -> CampaignResult:
        """Aggregate the campaign metrics (idempotent)."""
        if self.result is None:
            raise EngineError("finish() before prepare()")
        if not self._finished:
            self.runner.finish(self.result)
            self._finished = True
        return self.result

    def finalize(self) -> None:
        """Shut down the data plane and temp dir (idempotent).  After a
        failure :meth:`abort` is the same teardown: a plane never
        publishes a half-written container."""
        if self.dataplane is not None:
            self.dataplane.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    abort = finalize

    def report(self, wall_time_s: float) -> EngineReport:
        """The run's report (modelled result + wall-clock facts)."""
        return EngineReport(
            engine=self.spec.engine,
            spec=self.spec,
            result=self.finish(),
            wall_time_s=float(wall_time_s),
            data=None if self.dataplane is None else self.dataplane.stats,
        )

    # -- journal hooks: pure control plane, identical across engines --
    def journal_plan_data(self, iteration: int) -> dict:
        """The write-ahead *plan* payload for one iteration."""
        return self.runner.journal_plan_data(iteration)

    def journal_commit_data(self, record: IterationRecord) -> dict:
        """The post-iteration *commit* payload."""
        return self.runner.journal_commit_data(record)

    def journal_end_data(self) -> dict:
        """The campaign-complete *end* payload."""
        return self.runner.journal_end_data(
            self.finish(), self.spec.iterations
        )


def get_engine(name: str) -> type[ExecutionEngine]:
    """:class:`ExecutionEngine`, once ``name`` is checked against
    :data:`ENGINES` (raises :class:`EngineError` otherwise).

    ``solve()`` and the service's request parser check engine names
    here; it returns the class because ``perf/``'s workloads build
    their engines through it.
    """
    if name not in ENGINES:
        raise EngineError(
            f"unknown engine {name!r} (available: {', '.join(ENGINES)})"
        )
    return ExecutionEngine


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------
def _build_injector(
    spec: CampaignSpec, tracer: NullTracer, resumed: bool
) -> tuple[FaultInjector | None, RetryPolicy]:
    """The fault injector + retry policy a spec's fault data implies."""
    if spec.faults is None:
        return None, DEFAULT_RETRY_POLICY
    fault_spec = parse_fault_spec(spec.faults)
    seed = (
        fault_spec.seed if fault_spec.seed is not None else spec.seed
    )
    injector = FaultInjector(
        fault_spec.plan,
        seed=seed,
        tracer=tracer.bind(solution=spec.solution),
        # A crash point that killed the original run must not re-fire
        # while a resumed run replays past it.
        crash_armed=lambda: not resumed,
    )
    return injector, fault_spec.retry


def run_campaign(
    spec: CampaignSpec | None = None,
    *,
    journal_path: str | None = None,
    resume_path: str | None = None,
    tracer: NullTracer = NULL_TRACER,
    on_resume: Callable[[CampaignJournal], None] | None = None,
) -> EngineReport:
    """Run one campaign under the engine its spec names.

    This is the single campaign entry point: it builds the fault
    injector, opens (or resumes) the write-ahead journal, drives the
    engine through the ``prepare -> run_iteration -> finalize`` protocol
    with plan/commit records bracketing every iteration, and returns the
    engine's :class:`EngineReport`.

    With ``resume_path`` every campaign parameter comes from the journal
    header (``spec`` may be None); the committed prefix is re-executed
    and cross-checked byte-for-byte by the journal.  ``on_resume`` is
    called with the opened journal before execution starts (the CLI uses
    it to print progress).

    A journalled run's journal stays open on the returned report
    (``report.journal``) so callers can arm crash points around their
    own report writes; call ``report.close()`` when done.
    """
    if journal_path is not None and resume_path is not None:
        raise EngineError(
            "journal_path and resume_path are mutually exclusive "
            "(resume appends to the journal it resumes)"
        )
    journal: CampaignJournal | None = None
    if resume_path is not None:
        journal = CampaignJournal.resume(resume_path, tracer=tracer)
    elif spec is None:
        raise EngineError("run_campaign needs a CampaignSpec or a resume_path")

    # The engine before the journal: a header, fault spec or spec the
    # control plane rejects must not leave a journal behind that says a
    # campaign began (nor a resumed one open).
    try:
        if journal is not None:
            spec = CampaignSpec.from_journal_header(journal.header, base=spec)
            stored = journal.header.get("spec_crc32c")
            if stored is not None and stored != spec.control_fingerprint():
                raise JournalError(
                    f"journal {resume_path}: header spec fingerprint "
                    f"{stored} does not match the rebuilt spec "
                    f"({spec.control_fingerprint()}); the journalled "
                    "campaign used parameters the header cannot express "
                    "(e.g. an explicit config override) or the journal "
                    "was edited — refusing to resume"
                )
        injector, retry = _build_injector(
            spec, tracer, resumed=resume_path is not None
        )
        engine = ExecutionEngine(
            spec, tracer=tracer, injector=injector, retry=retry
        )
    except BaseException:
        if journal is not None:
            journal.close()
        raise
    if journal is not None:
        journal.injector = injector
        if on_resume is not None:
            on_resume(journal)
    if journal_path is not None:
        journal = CampaignJournal.create(
            journal_path,
            spec.journal_header(),
            fsync=spec.resolved_config().journal_fsync,
            injector=injector,
            tracer=tracer,
        )
    t0 = time.perf_counter()
    try:
        engine.prepare()
        for iteration in range(spec.iterations):
            if journal is not None:
                journal.record_plan(
                    iteration, engine.journal_plan_data(iteration)
                )
            record = engine.run_iteration(iteration)
            if journal is not None:
                journal.record_commit(
                    iteration, engine.journal_commit_data(record)
                )
        engine.finish()
        if journal is not None:
            journal.record_end(engine.journal_end_data())
        engine.finalize()
    except BaseException:
        engine.abort()
        if journal is not None:
            journal.close()
        raise
    report = engine.report(time.perf_counter() - t0)
    report.journal = journal
    return report
