"""Tests for the Section 4.4 overflow path in the modelled runtime."""

import numpy as np
import pytest

from repro.apps import NyxModel
from repro.framework import ProcessRuntime, ours_config
from repro.simulator import ZERO_NOISE


class _OverflowingNyx(NyxModel):
    """A Nyx whose actual ratios undershoot predictions by 2x, so every
    block compresses to twice the reserved size."""

    def block_ratios(self, rank, iteration, blocks_per_field, node_size,
                     stage=None):
        ratios = super().block_ratios(
            rank, iteration, blocks_per_field, node_size, stage
        )
        return {name: values / 2.0 for name, values in ratios.items()}


def _run_one_dump(app):
    runtime = ProcessRuntime(
        rank=0, app=app, config=ours_config(), node_size=4, noise=ZERO_NOISE
    )
    runtime.observe_iteration(app.iteration_profile(0))
    plan = runtime.plan_dump(1)
    return runtime.execute_dump(plan, 1)


class TestOverflow:
    def test_no_overflow_with_accurate_predictions(self):
        # With zero noise, first-dump predictions use base ratios while
        # actuals carry rank multipliers; pick a mid-node rank whose
        # multiplier is ~1 by construction of the second dump.
        app = NyxModel(seed=14)
        runtime = ProcessRuntime(
            rank=0, app=app, config=ours_config(), node_size=4,
            noise=ZERO_NOISE,
        )
        runtime.observe_iteration(app.iteration_profile(0))
        plan = runtime.plan_dump(1)
        runtime.execute_dump(plan, 1)
        # Second dump predicts from the first dump's actuals; residual
        # drift is ~1.45 % so overflow stays tiny relative to the data.
        plan2 = runtime.plan_dump(2)
        outcome = runtime.execute_dump(plan2, 2)
        raw = sum(b.raw_bytes for b in plan2.blocks)
        assert outcome.overflow_bytes < raw * 0.01

    def test_underprediction_triggers_overflow(self):
        outcome = _run_one_dump(_OverflowingNyx(seed=14))
        assert outcome.overflow_bytes > 0
        assert len(outcome.execution.extra_io) == 1

    def test_overflow_task_queued_after_everything(self):
        outcome = _run_one_dump(_OverflowingNyx(seed=14))
        (extra,) = outcome.execution.extra_io
        last_planned = max(
            iv.end for iv in outcome.execution.io.values()
        )
        assert extra.start >= last_planned - 1e-9

    def test_overflow_extends_makespan(self):
        outcome = _run_one_dump(_OverflowingNyx(seed=14))
        (extra,) = outcome.execution.extra_io
        assert outcome.execution.io_makespan == pytest.approx(
            extra.end - outcome.execution.begin
        )

    def test_overflow_bytes_counted_exactly(self):
        app = _OverflowingNyx(seed=14)
        runtime = ProcessRuntime(
            rank=0, app=app, config=ours_config(), node_size=4,
            noise=ZERO_NOISE,
        )
        runtime.observe_iteration(app.iteration_profile(0))
        plan = runtime.plan_dump(1)
        outcome = runtime.execute_dump(plan, 1)
        expected = sum(
            max(0, size - b.predicted_bytes)
            for b, size in zip(plan.blocks, outcome.actual_sizes)
        )
        assert outcome.overflow_bytes == expected

    def test_no_compression_never_overflows(self):
        from repro.framework import baseline_config

        app = _OverflowingNyx(seed=14)
        runtime = ProcessRuntime(
            rank=0, app=app, config=baseline_config(), node_size=4,
            noise=ZERO_NOISE,
        )
        runtime.observe_iteration(app.iteration_profile(0))
        plan = runtime.plan_dump(1)
        outcome = runtime.execute_dump(plan, 1)
        assert outcome.execution.extra_io == ()
