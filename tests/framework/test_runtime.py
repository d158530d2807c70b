"""Tests for the per-process runtime pipeline."""

import dataclasses

import pytest

from repro.apps import NyxModel
from repro.core import IoTaskRef
from repro.framework import (
    FrameworkConfig,
    ProcessRuntime,
    async_io_config,
    baseline_config,
    ours_config,
)
from repro.simulator import ZERO_NOISE


def _runtime(config=None, rank=0, **app_kwargs):
    app = NyxModel(seed=3, **app_kwargs)
    return ProcessRuntime(
        rank=rank,
        app=app,
        config=config or ours_config(),
        node_size=4,
        noise=ZERO_NOISE,
    )


class TestConfig:
    def test_defaults_are_paper_defaults(self):
        cfg = FrameworkConfig()
        assert cfg.scheduler == "ExtJohnson+BF"
        assert cfg.block_bytes == 8 * 2**20
        assert cfg.buffer_bytes == 20 * 2**20
        assert cfg.use_shared_tree
        assert cfg.use_balancing

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameworkConfig(block_bytes=0)
        with pytest.raises(ValueError):
            FrameworkConfig(buffer_bytes=-1)
        with pytest.raises(ValueError):
            FrameworkConfig(dump_period=0)

    def test_baseline_config_shape(self):
        cfg = baseline_config()
        assert not cfg.use_compression
        assert not cfg.overlap_with_computation
        assert not cfg.async_background

    def test_async_config_shape(self):
        cfg = async_io_config()
        assert not cfg.use_compression
        assert cfg.overlap_with_computation
        assert cfg.async_background

    def test_overrides(self):
        cfg = ours_config(block_bytes=2**20)
        assert cfg.block_bytes == 2**20


class TestPlanning:
    def test_blocks_per_field_matches_target(self):
        rt = _runtime()  # 256^3 float64 = 128 MiB per field
        assert rt.blocks_per_field() == 16  # 8 MiB blocks

    def test_no_compression_uses_whole_fields(self):
        rt = _runtime(config=baseline_config())
        assert rt.blocks_per_field() == 1

    def test_plan_covers_all_fields(self):
        rt = _runtime()
        plan = rt.plan_dump(1)
        fields = {b.field_name for b in plan.blocks}
        assert fields == {f.name for f in rt.app.fields}
        assert len(plan.blocks) == 9 * 16

    def test_predicted_sizes_use_base_ratio_without_history(self):
        rt = _runtime()
        plan = rt.plan_dump(1)
        block = plan.blocks[0]
        expected = block.raw_bytes / rt.app.fields[0].base_ratio
        assert block.predicted_bytes == pytest.approx(expected, rel=0.01)

    def test_predictions_track_history_after_dump(self):
        rt = _runtime()
        rt.observe_iteration(rt.app.iteration_profile(0))
        plan = rt.plan_dump(1)
        outcome = rt.execute_dump(plan, 1)
        plan2 = rt.plan_dump(2)
        # Second plan's ratios must be the first dump's actual ratios.
        b = plan2.blocks[0]
        actual = float(outcome.actual_ratios[b.field_name][b.block_index])
        assert b.predicted_ratio == pytest.approx(actual)

    def test_buffered_io_cheaper_than_unbuffered(self):
        buffered = _runtime(config=ours_config())
        unbuffered = _runtime(config=ours_config(buffer_bytes=0))
        pb = buffered.plan_dump(1).blocks[0]
        pu = unbuffered.plan_dump(1).blocks[0]
        assert pb.predicted_io_s < pu.predicted_io_s

    def test_shared_tree_speeds_compression(self):
        with_tree = _runtime(config=ours_config())
        without = _runtime(config=ours_config(use_shared_tree=False))
        tb = with_tree.plan_dump(1).blocks[0]
        tn = without.plan_dump(1).blocks[0]
        assert tb.predicted_compression_s < tn.predicted_compression_s


class TestJobsAndInstance:
    def test_instance_requires_history(self):
        rt = _runtime()
        plan = rt.plan_dump(1)
        with pytest.raises(LookupError):
            rt.make_instance(plan)

    def test_instance_uses_previous_profile(self):
        rt = _runtime()
        profile = rt.app.iteration_profile(0)
        rt.observe_iteration(profile)
        plan = rt.plan_dump(1)
        inst = rt.make_instance(plan)
        assert inst.length == pytest.approx(profile.length)
        assert len(inst.main_obstacles) == len(profile.main_obstacles)

    def test_baseline_blocks_both_threads(self):
        rt = _runtime(config=baseline_config())
        rt.observe_iteration(rt.app.iteration_profile(0))
        plan = rt.plan_dump(1)
        inst = rt.make_instance(plan)
        assert len(inst.main_obstacles) == 1
        assert inst.main_obstacles[0].duration == pytest.approx(inst.length)
        assert len(inst.background_obstacles) == 1

    def test_moved_out_zeroes_io(self):
        rt = _runtime()
        rt.observe_iteration(rt.app.iteration_profile(0))
        plan = rt.plan_dump(1)
        plan.moved_out = {0}
        inst = rt.make_instance(plan)
        assert inst.io_time[0] == 0.0
        assert inst.io_time[1] > 0.0
        assert plan.predicted_io_s[0] > 0.0  # the plan is not edited

    def test_moved_in_appends_pseudo_jobs(self):
        rt = _runtime()
        rt.observe_iteration(rt.app.iteration_profile(0))
        plan = rt.plan_dump(1)
        plan.moved_in = [IoTaskRef(owner=2, job_index=5, duration=0.3)]
        inst = rt.make_instance(plan)
        assert inst.num_jobs == len(plan.blocks) + 1
        assert inst.compression_time[-1] == 0.0
        assert inst.io_time[-1] == pytest.approx(0.3)
        # Donor prefix-sum release: its first six compressions.
        assert inst.io_release[-1] == pytest.approx(
            plan.predicted_compression_s[:6].sum()
        )
        assert not inst.io_release[:-1].any()
        assert rt.build_jobs(plan) == inst.jobs


class TestExecution:
    def test_zero_noise_execution_valid(self):
        rt = _runtime()
        rt.observe_iteration(rt.app.iteration_profile(0))
        plan = rt.plan_dump(1)
        outcome = rt.execute_dump(plan, 1)
        assert outcome.execution.overhead >= 0.0
        assert len(outcome.actual_sizes) == len(plan.blocks)

    def test_ours_beats_baseline_per_process(self):
        results = {}
        for name, cfg in (
            ("ours", ours_config()),
            ("baseline", baseline_config()),
        ):
            rt = _runtime(config=cfg)
            rt.observe_iteration(rt.app.iteration_profile(0))
            plan = rt.plan_dump(1)
            results[name] = rt.execute_dump(plan, 1).relative_overhead
        assert results["ours"] < results["baseline"] / 2

    def test_schedule_is_valid(self):
        rt = _runtime()
        rt.observe_iteration(rt.app.iteration_profile(0))
        plan = rt.plan_dump(1)
        outcome = rt.execute_dump(plan, 1)
        outcome.schedule.validate()
