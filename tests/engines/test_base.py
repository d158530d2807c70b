"""Engine table, shared-memory registry, and driver basics."""

import dataclasses
import os

import numpy as np
import pytest

from repro.engines import (
    ENGINES,
    CampaignSpec,
    EngineError,
    ExecutionEngine,
    PoolDataPlane,
    SegmentRegistry,
    SerialDataPlane,
    attach_view,
    get_engine,
    run_campaign,
)
from repro.engines.shm import SHM_PREFIX, active_segments
from repro.framework import ours_config


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert ENGINES == ("process", "sim")
        for name in ENGINES:
            assert get_engine(name) is ExecutionEngine

    def test_unknown_engine(self):
        with pytest.raises(EngineError, match="unknown engine 'mpi'"):
            get_engine("mpi")


class TestOneEngineClass:
    def test_builtin_engines_only_name_their_data_plane(self, tmp_path):
        assert not ExecutionEngine.__subclasses__()
        for engine, plane in (
            ("sim", SerialDataPlane),
            ("process", PoolDataPlane),
        ):
            spec = CampaignSpec(
                nodes=1,
                ppn=2,
                iterations=1,
                engine=engine,
                data_dir=str(tmp_path / engine),
                workers=1,
            )
            runner = ExecutionEngine(spec)
            runner.prepare()
            try:
                assert type(runner.dataplane) is plane
            finally:
                runner.finalize()


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
        # An unknown engine name now fails when the spec is built; a
        # fault spec the injector refuses still reaches run_campaign.
        path = tmp_path / "campaign.journal"
        with pytest.raises(ValueError, match="CampaignSpec.engine"):
            run_campaign(
                CampaignSpec(engine="mpi"), journal_path=str(path)
            )
        with pytest.raises(ValueError, match="unknown fault kind"):
            run_campaign(
                CampaignSpec(faults={"bogus": {}}), journal_path=str(path)
            )
        assert not os.path.exists(path)

    def test_resume_keeps_every_unjournaled_field(self, tmp_path):
        """A resume takes the journaled fields from the header and every
        other spec field from the caller, except ``config``."""
        journaled = CampaignSpec(nodes=1, ppn=2, iterations=3, seed=5)
        header = journaled.journal_header()
        path = tmp_path / "campaign.journal"
        run_campaign(journaled, journal_path=str(path)).close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3]))

        # A non-default value for every field the header does not carry.
        caller_values = dict(
            config=ours_config(),
            data_dir=str(tmp_path / "data"),
            data_edge=8,
            data_fields=1,
            data_block_bytes=4096,
            workers=1,
            task_deadline_s=5.0,
            max_task_retries=1,
        )
        unjournaled = {
            f.name for f in dataclasses.fields(CampaignSpec)
        } - set(header)
        assert unjournaled == set(caller_values)
        default = CampaignSpec()
        for name, value in caller_values.items():
            assert value != getattr(default, name), name
        caller = CampaignSpec(seed=99, **caller_values)
        report = run_campaign(caller, resume_path=str(path))
        report.close()
        for field in dataclasses.fields(CampaignSpec):
            got = getattr(report.spec, field.name)
            if field.name == "config":
                assert got is None
            elif field.name in header:
                assert got == header[field.name], field.name
            else:
                assert got == getattr(caller, field.name), field.name
        assert report.block_crc32c

    def test_report_carries_wall_and_modelled_time(self):
        report = run_campaign(CampaignSpec(nodes=1, ppn=2, iterations=3))
        assert report.wall_time_s > 0.0
        assert report.modelled_time_s == pytest.approx(
            report.result.total_time
        )
