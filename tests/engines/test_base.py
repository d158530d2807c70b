"""Engine registry, shared-memory registry, and driver basics."""

import inspect
import os

import numpy as np
import pytest

from repro.engines import (
    CampaignSpec,
    EngineError,
    ExecutionEngine,
    ProcessPoolEngine,
    SegmentRegistry,
    SerialDataPlane,
    SimulatorEngine,
    attach_view,
    base,
    get_engine,
    list_engines,
    register_engine,
    run_campaign,
)
from repro.engines.shm import SHM_PREFIX, active_segments


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert list_engines() == ["process", "sim"]
        assert get_engine("sim") is SimulatorEngine
        assert get_engine("process") is ProcessPoolEngine

    def test_unknown_engine(self):
        with pytest.raises(EngineError, match="unknown engine 'mpi'"):
            get_engine("mpi")

    def test_reregistering_same_class_is_idempotent(self):
        assert register_engine(SimulatorEngine) is SimulatorEngine

    def test_name_collision_rejected(self):
        class Impostor(SimulatorEngine):
            name = "sim"

        with pytest.raises(ValueError, match="already registered"):
            register_engine(Impostor)

    def test_unnamed_engine_rejected(self):
        class Nameless(SimulatorEngine):
            name = ""

        with pytest.raises(ValueError, match="non-empty"):
            register_engine(Nameless)


class TestOneEngineClass:
    def test_builtin_engines_only_name_their_data_plane(self):
        for cls in (SimulatorEngine, ProcessPoolEngine):
            assert cls.__bases__ == (ExecutionEngine,)
            assert not any(map(inspect.isfunction, vars(cls).values()))

    def test_engine_that_only_names_a_data_plane_runs(
        self, tmp_path, monkeypatch
    ):
        """A registered engine is ``name`` + ``dataplane_cls``: it runs
        end to end and matches ``sim`` block for block."""
        monkeypatch.setattr(base, "_REGISTRY", dict(base._REGISTRY))

        @register_engine
        class Throwaway(ExecutionEngine):
            name = "throwaway"
            dataplane_cls = SerialDataPlane

        def run(engine):
            spec = CampaignSpec(
                nodes=1,
                ppn=2,
                iterations=3,
                seed=5,
                engine=engine,
                data_dir=str(tmp_path / engine),
                data_edge=8,
                data_fields=1,
            )
            return run_campaign(spec)

        sim, throwaway = run("sim"), run("throwaway")
        assert throwaway.engine == "throwaway"
        assert throwaway.block_crc32c and (
            throwaway.block_crc32c == sim.block_crc32c
        )
        assert throwaway.result.records == sim.result.records


class TestSegmentRegistry:
    def test_create_release_cycle(self):
        registry = SegmentRegistry()
        segment = registry.create(256)
        assert segment.name.startswith(SHM_PREFIX)
        assert segment.name in active_segments()
        assert registry.live == [segment.name]
        view = attach_view(segment, (32,), np.dtype("<f8"), 0)
        view[:] = np.arange(32, dtype=np.float64)
        assert float(view.sum()) == float(np.arange(32).sum())
        del view  # views pin the mapping; drop before unlinking
        registry.release(segment.name)
        assert registry.live == []
        assert segment.name not in active_segments()

    def test_release_unknown_name_is_noop(self):
        SegmentRegistry().release("repro-shm-never-existed")

    def test_release_all(self):
        registry = SegmentRegistry()
        names = [registry.create(64).name for _ in range(3)]
        registry.release_all()
        assert registry.live == []
        assert not set(names) & set(active_segments())


class TestRunCampaignDriver:
    def test_spec_required_unless_resuming(self):
        with pytest.raises(EngineError, match="needs a CampaignSpec"):
            run_campaign()

    def test_journal_and_resume_are_exclusive(self, tmp_path):
        with pytest.raises(EngineError, match="mutually exclusive"):
            run_campaign(
                CampaignSpec(),
                journal_path=str(tmp_path / "j"),
                resume_path=str(tmp_path / "j"),
            )

    def test_unknown_engine_leaves_no_journal(self, tmp_path):
        # Regression: the journal used to be created (a ``begin`` record
        # written, the handle left open) before the engine was resolved.
        path = tmp_path / "campaign.journal"
        with pytest.raises(EngineError, match="unknown engine 'mpi'"):
            run_campaign(
                CampaignSpec(engine="mpi"), journal_path=str(path)
            )
        assert not os.path.exists(path)

    def test_report_carries_wall_and_modelled_time(self):
        report = run_campaign(CampaignSpec(nodes=1, ppn=2, iterations=3))
        assert report.wall_time_s > 0.0
        assert report.modelled_time_s == pytest.approx(
            report.result.total_time
        )
