"""Semantics of the three solution configurations."""

import pytest

from repro.apps import NyxModel
from repro.framework import (
    ProcessRuntime,
    async_io_config,
    baseline_config,
    ours_config,
)
from repro.simulator import ZERO_NOISE


def _runtime(config):
    app = NyxModel(seed=91)
    rt = ProcessRuntime(
        rank=0, app=app, config=config, node_size=4, noise=ZERO_NOISE
    )
    rt.observe_iteration(app.iteration_profile(0))
    return rt


class TestBaselineSemantics:
    def test_baseline_jobs_are_whole_raw_fields(self):
        rt = _runtime(baseline_config())
        plan = rt.plan_dump(1)
        assert len(plan.blocks) == len(rt.app.fields)
        for block in plan.blocks:
            assert block.predicted_ratio == 1.0
            assert block.predicted_bytes == rt.app.partition_nbytes()
            assert block.predicted_compression_s == 0.0

    def test_baseline_writes_strictly_after_computation(self):
        rt = _runtime(baseline_config())
        plan = rt.plan_dump(1)
        outcome = rt.execute_dump(plan, 1)
        length = outcome.execution.computation_length
        for interval in outcome.execution.io.values():
            assert interval.start >= length - 1e-9

    def test_async_writes_overlap_computation(self):
        rt = _runtime(async_io_config())
        plan = rt.plan_dump(1)
        outcome = rt.execute_dump(plan, 1)
        length = outcome.execution.computation_length
        assert any(
            interval.start < length
            for interval in outcome.execution.io.values()
        )

    def test_ours_compresses(self):
        rt = _runtime(ours_config())
        plan = rt.plan_dump(1)
        raw = sum(b.raw_bytes for b in plan.blocks)
        predicted = sum(b.predicted_bytes for b in plan.blocks)
        assert predicted < raw / 4

    def test_no_compression_solutions_write_raw_volume(self):
        for config in (baseline_config(), async_io_config()):
            rt = _runtime(config)
            plan = rt.plan_dump(1)
            total = sum(b.predicted_bytes for b in plan.blocks)
            assert total == rt.app.partition_nbytes() * len(rt.app.fields)

    def test_ours_overhead_smallest_single_process(self):
        overheads = {}
        for name, config in (
            ("baseline", baseline_config()),
            ("previous", async_io_config()),
            ("ours", ours_config()),
        ):
            rt = _runtime(config)
            plan = rt.plan_dump(1)
            overheads[name] = rt.execute_dump(plan, 1).relative_overhead
        assert (
            overheads["ours"]
            < overheads["previous"]
            < overheads["baseline"]
        )

    def test_config_overrides_respected(self):
        config = baseline_config(dump_period=5)
        assert config.dump_period == 5
        assert not config.use_compression

    def test_solutions_differ_only_where_documented(self):
        base = baseline_config()
        asynchronous = async_io_config()
        assert base.scheduler == asynchronous.scheduler
        assert base.use_compression == asynchronous.use_compression
        assert base.async_background != asynchronous.async_background
        assert (
            base.overlap_with_computation
            != asynchronous.overlap_with_computation
        )
