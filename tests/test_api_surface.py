"""Meta tests: the public API surface is consistent and importable."""

import importlib
import pkgutil

import pytest

import repro

_PACKAGES = [
    "repro",
    "repro.core",
    "repro.compression",
    "repro.simulator",
    "repro.io",
    "repro.apps",
    "repro.framework",
    "repro.telemetry",
    "repro.resilience",
    "repro.engines",
    "repro.durability",
    "repro.service",
]


class TestApiSurface:
    @pytest.mark.parametrize("package", _PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", _PACKAGES)
    def test_no_duplicate_exports(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))

    def test_every_submodule_imports(self):
        failures = []
        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            try:
                importlib.import_module(info.name)
            except Exception as exc:  # pragma: no cover
                failures.append((info.name, exc))
        assert not failures

    def test_every_public_item_documented(self):
        undocumented = []
        for package in _PACKAGES:
            module = importlib.import_module(package)
            for name in module.__all__:
                item = getattr(module, name)
                if callable(item) or isinstance(item, type):
                    if not (item.__doc__ or "").strip():
                        undocumented.append(f"{package}.{name}")
        assert not undocumented, undocumented

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_solve_result_surface(self):
        """SolveResult carries the engine name, wall/modelled timings,
        and a telemetry handle (PR 6 API)."""
        import dataclasses
        import inspect

        from repro.core import SolveResult, solve

        names = {f.name for f in dataclasses.fields(SolveResult)}
        assert {
            "schedule",
            "makespan",
            "algorithm",
            "wall_time",
            "status",
            "detail",
            "engine",
            "telemetry",
        } <= names
        assert isinstance(SolveResult.modelled_time, property)
        assert "engine" in inspect.signature(solve).parameters

    def test_instance_column_surface(self):
        """A scheduling instance holds its jobs as columns: Johnson's
        order takes the instance, ``from_columns`` builds one without a
        ``Job``, ``schedule_orders`` takes only complete orders and a
        plan keeps no job list."""
        import dataclasses
        import inspect

        from repro.core import ProblemInstance, johnson_order, schedule_orders
        from repro.framework import DumpPlan

        assert list(inspect.signature(johnson_order).parameters) == [
            "instance"
        ]
        assert list(
            inspect.signature(ProblemInstance.from_columns).parameters
        ) == [
            "begin",
            "end",
            "compression_time",
            "io_time",
            "io_release",
            "main_obstacles",
            "background_obstacles",
        ]
        assert [f.name for f in dataclasses.fields(ProblemInstance)] == [
            "begin",
            "end",
            "jobs",
            "main_obstacles",
            "background_obstacles",
        ]
        params = inspect.signature(schedule_orders).parameters
        assert "require_complete" not in params
        assert "jobs" not in {f.name for f in dataclasses.fields(DumpPlan)}

    def test_engine_protocol_surface(self):
        """The one engine class implements the four-phase protocol for
        every engine name."""
        from repro.engines import ENGINES, ExecutionEngine, get_engine

        assert ENGINES == ("process", "sim")
        for name in ENGINES:
            cls = get_engine(name)
            assert cls is ExecutionEngine
            for phase in (
                "prepare",
                "run_iteration",
                "finish",
                "finalize",
                "report",
            ):
                assert callable(getattr(cls, phase)), (name, phase)

    def test_retired_names_stay_retired(self):
        """One benchmark harness (pytest-benchmark, no ``repro.bench``
        package or ``repro bench`` command), a codec backend is chosen by argument (no env var), campaign
        time is a float (no event kernel), there is one engine class
        (no per-engine modules) and one supervisor tally (no mirror on
        the resilience log), one fault path (no crash-handler global,
        no service-only chaos class), one Gantt renderer, no orphan
        block-size profiler or resumable analysis, no breaker,
        heartbeat-interval or probe-failure knobs, one iteration
        history (the runtime's), no search outside the algorithm
        registry, no sweep helper, one view of a schedule's placements,
        the algorithms, engines and codec backends as constant tables
        (no registration functions, engine subclasses or ``repro
        engines`` command), one timing of each modelled write (no write
        log), no offline model fit, one codec family (no ZFP-style
        codec, no ``repro compress --codec``), one durable store of
        solve replies (the ledger: no memo-cache disk tier, no
        ``repro serve --cache-dir``) and one container layout (the
        shared file: no subfiled directory, no ``repro snapshot
        --layout``, no reader dispatch); a failed solve or campaign
        answers its own request (no engine circuit breaker, no
        ``engine_unavailable`` refusal, no ``breakers`` in
        ``/health``), the task deadline is the pool plane's one
        straggler rule (no speculative duplicates, no ``repro campaign
        --speculative-frac``), one application model serves every app
        (no ``particles_per_rank``) and the container writer makes the
        one CRC recheck of a written block (no ``durable`` knob)."""
        import inspect

        import os
        import subprocess
        import sys

        import repro.compression
        import repro.compression.kernels as kernels
        import repro.durability
        import repro.service
        import repro.simulator
        from repro.durability import CampaignJournal
        from repro.engines import WorkerSupervisor
        from repro.resilience import FaultInjector, FaultPlan, ResilienceLog

        assert "bench" not in repro.__all__
        for command in (
            ["bench"], ["engines"], ["compress", "--codec", "zfp"],
            ["serve", "--cache-dir", "x"],
            ["snapshot", "x", "--layout", "subfiled"],
            ["campaign", "--speculative-frac", "0"],
        ):
            run = subprocess.run(
                [sys.executable, "-m", "repro", *command],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONPATH": os.path.dirname(
                        os.path.dirname(repro.__file__)
                    ),
                },
            )
            assert run.returncode == 2, (command, run.stderr)
        assert not hasattr(kernels, "BACKEND_ENV_VAR")
        assert "Simulation" not in repro.simulator.__all__
        for module in (
            "repro.bench",
            "repro.simulator.engine",
            "repro.engines.sim",
            "repro.engines.process",
            "repro.durability.crashpoints",
            "repro.simulator.trace",
            "repro.compression.autotuner",
            "repro.compression.zfp",
            "repro.io.subfiling",
            "repro.resilience.breaker",
        ):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        assert not hasattr(ResilienceLog, "record_task_retry")
        assert "log" not in inspect.signature(WorkerSupervisor).parameters
        assert not {
            "set_crash_handler", "trigger_crash", "CRASH_POINTS",
        } & set(repro.durability.__all__)
        assert "ServiceChaos" not in repro.service.__all__
        assert not hasattr(CampaignJournal, "maybe_crash")
        injector = FaultInjector(FaultPlan())
        assert not hasattr(injector, "crash_enabled")
        assert not hasattr(injector, "process_kill_fires")
        assert not {
            "TraceEvent", "schedule_to_trace", "execution_to_trace",
            "render_gantt", "trace_to_csv", "trace_to_json",
        } & set(repro.simulator.__all__)
        assert not {
            "BlockSizeProfile", "profile_block_sizes",
        } & set(repro.compression.__all__)
        # Knobs nobody set and the orphan resumable analysis.
        import repro.core
        from repro.service import ServiceServer, Watchdog, serve_forever

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.resumable")
        assert not {
            "ResumableSchedule", "resumable_schedule", "preemption_cost",
        } & set(repro.core.__all__)
        assert "probe_failures" not in inspect.signature(
            Watchdog
        ).parameters
        for entry in (ServiceServer, serve_forever):
            assert "heartbeat_interval_s" not in inspect.signature(
                entry
            ).parameters
        # Code no program path ran: a second iteration history, the
        # unregistered local search, the sweep helper, the report
        # tables, a third view of a schedule's placements, the
        # registration functions and subclasses of three closed sets,
        # the file system's write log and the offline model fit.
        for module in (
            "repro.core.predictor",
            "repro.core.local_search",
            "repro.framework.sweep",
            "repro.framework.calibration",
        ):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        retired = {
            "IterationHistory", "local_search_schedule", "sweep_campaigns",
            "SweepResult", "SweepPoint", "ScheduledTask",
            "campaign_summary_table", "iteration_table",
            "register_algorithm", "unregister_algorithm", "register_engine",
            "register_backend", "SimulatorEngine", "ProcessPoolEngine",
            "list_engines", "WriteRecord", "fit_io_model",
            "fit_compression_model", "FitQuality", "ZFPCompressor",
            "ZFPBlockStream", "BreakerOpenError", "SubfileWriter",
            "SubfileReader", "open_snapshot", "CircuitBreaker",
            "EngineUnavailableError", "REJECT_ENGINE_UNAVAILABLE",
        }
        assert not (retired | {"IterationRecord"}) & set(repro.__all__)
        exporters = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            exported = set(
                getattr(importlib.import_module(info.name), "__all__", ())
            )
            assert not retired & exported, info.name
            if "IterationRecord" in exported:
                exporters.append(info.name)
        # The campaign's record, exported by its package and defined in
        # the orchestrator.
        assert sorted(exporters) == [
            "repro.framework", "repro.framework.orchestrator",
        ]
        assert not hasattr(repro.core.Schedule, "tasks")
        # The ledger is the one durable store of solve replies.
        from repro.service import MemoCache, SchedulingService

        assert list(inspect.signature(MemoCache).parameters) == ["capacity"]
        # Failures are answered per request.
        service = SchedulingService()
        try:
            assert not hasattr(service, "engine_breaker")
            assert service.health_payload() == {"ok": True, "draining": False}
            assert "breakers" not in service.status_payload()
        finally:
            service.shutdown()
        # The shared file is the one container layout.
        import repro.framework.snapshot as snapshot

        assert not hasattr(snapshot, "open_snapshot")
        assert list(inspect.signature(snapshot.save_snapshot).parameters) == [
            "path", "fields", "error_bounds", "block_bytes", "compressor",
            "shared_codebook",
        ]
        # One application model: every app takes a partition shape and
        # inherits profiles, stages and block-ratio draws from the base.
        from repro.apps import (
            ApplicationModel, HaccModel, NyxModel, WarpXModel,
        )

        for cls in (NyxModel, WarpXModel, HaccModel):
            assert list(inspect.signature(cls).parameters) == [
                "seed", "partition_shape", "iteration_length_s",
                "total_iterations",
            ]
            assert set(vars(cls)) & {
                "__init__", "iteration_profile", "stage_of",
                "max_ratio_difference", "block_ratios",
            } == set()
        assert ApplicationModel.__abstractmethods__ == {"generate_field"}
        # One CRC recheck per block on the write path (the container
        # writer's), and the container always fsyncs.
        from repro.io import AsyncWriter, SharedFileWriter

        assert not hasattr(AsyncWriter, "_verify_payload")
        assert list(inspect.signature(SharedFileWriter).parameters) == [
            "path"
        ]

    def test_identity_and_integrity_helpers(self):
        """Canonical JSON is hashed two ways: ``identity_json``
        (BLAKE2b-128) keys every lookup of the service, and
        ``fingerprint_json`` (CRC32C) stays the integrity stamp."""
        import repro.durability
        from repro.durability import fingerprint_json, identity_json

        assert {"fingerprint_json", "identity_json"} <= set(
            repro.durability.__all__
        )
        assert len(identity_json({"a": 1})) == 32
        assert len(fingerprint_json({"a": 1})) == 8

    def test_config_field_sets(self):
        """Every config field is one somebody sets; a new one is a
        deliberate diff here."""
        import dataclasses

        from repro.engines import CampaignSpec
        from repro.framework import FrameworkConfig
        from repro.service import ServiceConfig

        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert names(CampaignSpec) == {
            "app", "nodes", "ppn", "iterations", "solution", "seed",
            "engine", "faults", "config", "data_dir", "data_edge",
            "data_fields", "data_block_bytes", "workers",
            "task_deadline_s", "max_task_retries",
        }

        assert names(ServiceConfig) == {
            "workers", "max_queue", "cache_size", "quota_rate",
            "quota_burst", "tenant_quotas", "campaign_cost", "ledger_path",
            "drain_deadline_s",
        }
        assert names(FrameworkConfig) == {
            "scheduler", "block_bytes", "buffer_bytes", "use_shared_tree",
            "use_balancing", "balancing_threshold", "use_compression",
            "overlap_with_computation", "async_background",
            "num_subfiles", "oracle_scheduling", "dump_period",
            "overrun_deadline_frac", "journal_fsync",
            "compression_model", "io_model",
        }

    def test_cli_importable_without_side_effects(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.prog == "repro"
