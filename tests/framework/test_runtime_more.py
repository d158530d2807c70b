"""Additional runtime tests: balancing bookkeeping and plan integrity."""

import numpy as np
import pytest

from repro.apps import NyxModel, WarpXModel
from repro.core import IoTaskRef
from repro.framework import CampaignRunner, ProcessRuntime, ours_config
from repro.simulator import ZERO_NOISE, ClusterSpec


def _runtime(app=None, config=None, rank=0):
    app = app or NyxModel(seed=71)
    return ProcessRuntime(
        rank=rank,
        app=app,
        config=config or ours_config(),
        node_size=4,
        noise=ZERO_NOISE,
    )


class TestPlanIntegrity:
    def test_job_indices_sequential_field_major(self):
        rt = _runtime()
        plan = rt.plan_dump(1)
        nb = rt.blocks_per_field()
        for i, block in enumerate(plan.blocks):
            assert block.job_index == i
            assert block.block_index == i % nb
        field_order = [b.field_name for b in plan.blocks[::nb]]
        assert field_order == [f.name for f in rt.app.fields]

    def test_raw_bytes_cover_partition(self):
        rt = _runtime()
        plan = rt.plan_dump(1)
        per_field = {}
        for block in plan.blocks:
            per_field.setdefault(block.field_name, 0)
            per_field[block.field_name] += block.raw_bytes
        for total in per_field.values():
            assert total == rt.app.partition_nbytes()

    def test_io_refs_match_blocks(self):
        rt = _runtime()
        plan = rt.plan_dump(1)
        refs = plan.io_task_refs(rank=3)
        assert len(refs) == len(plan.blocks)
        assert all(r.owner == 3 for r in refs)
        assert [r.job_index for r in refs] == [
            b.job_index for b in plan.blocks
        ]

    def test_warpx_plan_uses_its_fields(self):
        rt = _runtime(app=WarpXModel(seed=71))
        plan = rt.plan_dump(1)
        names = {b.field_name for b in plan.blocks}
        assert "Ex" in names and "rho" in names


def _node_plans(ranks=4):
    """One node's runner and its ranks' first-dump plans."""
    runner = CampaignRunner(
        NyxModel(seed=71),
        ClusterSpec(num_nodes=1, processes_per_node=ranks),
        ours_config(),
        noise=ZERO_NOISE,
    )
    return runner, [rt.plan_dump(1) for rt in runner.runtimes]


class TestBalancingBookkeeping:
    """The orchestrator's node balancing writes each plan's verdict."""

    def test_kept_everything_means_no_moves(self):
        # The first dump predicts every rank from the base ratios alike.
        runner, plans = _node_plans()
        runner._balance_node_io(plans)
        for plan in plans:
            assert plan.moved_out == set()
            assert plan.moved_in == []

    def test_moved_out_complements_kept(self):
        runner, plans = _node_plans()
        plans[0].predicted_io_s = plans[0].predicted_io_s * 10.0
        runner._balance_node_io(plans)
        moved_out = plans[0].moved_out
        assert moved_out  # the head of rank 0's queue moved away
        assert moved_out == set(range(len(moved_out)))
        moved_in = [ref for plan in plans[1:] for ref in plan.moved_in]
        assert sorted(ref.job_index for ref in moved_in) == sorted(moved_out)
        for ref in moved_in:
            assert ref.owner == 0
            assert ref.duration == plans[0].predicted_io_s[ref.job_index]

    def test_foreign_kept_refs_ignored(self):
        # Rank 0 gives tasks 0 and 1 away, rank 1 runs dry and hands
        # task 0 back: rank 0 keeps it, and nobody moves it in.
        runner, plans = _node_plans(ranks=2)
        plans[0].predicted_io_s = np.array([1.0, 9.0, 3.0])
        plans[1].predicted_io_s = np.array([1.0])
        runner._balance_node_io(plans)
        assert plans[0].moved_out == {1}
        assert plans[0].moved_in == [IoTaskRef(1, 0, 1.0)]
        assert plans[1].moved_out == {0}
        assert plans[1].moved_in == [IoTaskRef(0, 1, 9.0)]

    def test_execution_with_moves_still_valid(self):
        rt = _runtime()
        rt.observe_iteration(rt.app.iteration_profile(0))
        plan = rt.plan_dump(1)
        jobs = len(plan.predicted_io_s)
        plan.moved_out = {jobs - 2, jobs - 1}
        plan.moved_in = [IoTaskRef(owner=1, job_index=4, duration=0.02)]
        outcome = rt.execute_dump(plan, 1, moved_in_actual_s=[0.02])
        outcome.schedule.validate()
        # Moved-out jobs executed with zero I/O locally.
        for job_index in plan.moved_out:
            assert outcome.execution.io[job_index].duration == 0.0
