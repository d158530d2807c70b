"""``ApplicationModel.block_ratios`` against the per-field loop it
replaced.

The oracle below is that loop: the node's multipliers drawn for every
call, then one ``rng.normal`` per field.  The model draws the
multipliers once per ``(node_size, stage, iteration)`` and all the block
noise in one ``(fields, blocks_per_field)`` call; every value must be
the oracle's, bit for bit, for every application (the benchmarks' Nyx
variants included, whose ``rank_multipliers``/``stage_of`` differ), and
whatever order the calls come in.
"""

import numpy as np
import pytest

from benchmarks.common import FixedSpreadNyx, FixedStageNyx
from repro.apps import HaccModel, NyxModel, Stage, WarpXModel


def _oracle(app, rank, iteration, blocks_per_field, node_size, stage=None):
    if stage is None:
        stage = app.stage_of(iteration, app.total_iterations)
    multipliers = app.rank_multipliers(node_size, stage, iteration)
    mult = multipliers[rank % node_size]
    rng = app._rng(3, rank, iteration)
    out = {}
    for spec in app.fields:
        block_noise = rng.normal(
            1.0, app.block_noise_sigma, size=blocks_per_field
        )
        out[spec.name] = np.clip(
            spec.base_ratio * mult * block_noise, app.ratio_floor, None
        )
    return out


_APPS = {
    "nyx": lambda: NyxModel(seed=7),
    "warpx": lambda: WarpXModel(seed=7),
    "hacc": lambda: HaccModel(seed=7),
    "fixed-spread-nyx": lambda: FixedSpreadNyx(12.0, seed=7),
    "fixed-stage-nyx": lambda: FixedStageNyx(Stage.END, seed=7),
}


def _assert_same(app, rank, iteration, blocks, node_size, stage=None):
    got = app.block_ratios(rank, iteration, blocks, node_size, stage)
    want = _oracle(app, rank, iteration, blocks, node_size, stage)
    assert list(got) == list(want)
    for name, values in want.items():
        assert got[name].dtype == values.dtype
        assert got[name].shape == values.shape
        assert np.array_equal(got[name], values), (name, rank, iteration)


@pytest.mark.parametrize("name", sorted(_APPS))
@pytest.mark.parametrize("node_size", [1, 4, 8])
@pytest.mark.parametrize("stage", list(Stage))
def test_every_stage_and_node_size(name, node_size, stage):
    app = _APPS[name]()
    for iteration in (1, 2, 9):
        for rank in range(2 * node_size):
            _assert_same(app, rank, iteration, 16, node_size, stage)


@pytest.mark.parametrize("name", sorted(_APPS))
def test_repeated_and_interleaved_calls(name):
    """One node size, another, then back; the same call twice; and the
    stage left to ``stage_of`` across the run's thirds."""
    app = _APPS[name]()
    calls = [
        (0, 3, 4, 4), (1, 3, 4, 4), (0, 3, 4, 8), (5, 3, 4, 8),
        (2, 3, 4, 4), (2, 3, 4, 4), (0, 4, 4, 4), (3, 3, 4, 4),
        (0, 3, 4, 1), (9, 3, 2, 8), (1, 4, 4, 4),
    ]
    calls += [(rank, it, 3, 4) for it in (1, 12, 25) for rank in (0, 6)]
    for rank, iteration, blocks, node_size in calls:
        _assert_same(app, rank, iteration, blocks, node_size)


def test_memoized_multipliers_are_read_only():
    app = NyxModel(seed=7)
    app.block_ratios(1, 5, 4, node_size=4)
    key, multipliers = app._multipliers
    assert key == (4, app.stage_of(5), 5)
    assert not multipliers.flags.writeable
    with pytest.raises(ValueError):
        multipliers[0] = 1.0
    assert np.array_equal(
        multipliers, app.rank_multipliers(4, app.stage_of(5), 5)
    )
