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

    def test_engine_protocol_surface(self):
        """Every registered engine implements the four-phase protocol."""
        from repro.engines import ExecutionEngine, get_engine, list_engines

        assert {"sim", "process"} <= set(list_engines())
        for name in list_engines():
            cls = get_engine(name)
            assert issubclass(cls, ExecutionEngine)
            assert cls.name == name
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
        registry, no sweep helper and one view of a schedule's
        placements."""
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
        bench = subprocess.run(
            [sys.executable, "-m", "repro", "bench"],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
            },
        )
        assert bench.returncode == 2, bench.stderr
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
        # tables and a third view of a schedule's placements.
        for module in (
            "repro.core.predictor",
            "repro.core.local_search",
            "repro.framework.sweep",
        ):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        retired = {
            "IterationHistory", "local_search_schedule", "sweep_campaigns",
            "SweepResult", "SweepPoint", "ScheduledTask",
            "campaign_summary_table", "iteration_table",
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

    def test_config_field_sets(self):
        """Every config field is one somebody sets; a new one is a
        deliberate diff here."""
        import dataclasses

        from repro.framework import FrameworkConfig
        from repro.service import ServiceConfig

        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert names(ServiceConfig) == {
            "workers", "max_queue", "cache_size", "cache_dir",
            "quota_rate", "quota_burst", "tenant_quotas", "campaign_cost",
            "ledger_path", "drain_deadline_s",
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
