"""The one-call dump draw against the per-task draws it replaced.

``NoiseModel.perturb_dump`` must return, bit for bit, what one
``perturb_compression_time`` and one ``perturb_io_time`` call per task
returns (each job's compression, then its I/O, then the write-only
tail), and leave the generator in the same state.  Under fault
injection ``ProcessRuntime.execute_dump`` scales those draws by the
rank's straggler factors and the iteration's bandwidth burst, and asks
the injector compression first, then I/O, so its tallies and its
``fault.injected`` events keep their order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import NyxModel
from repro.framework import ProcessRuntime, ours_config
from repro.framework import runtime as runtime_module
from repro.resilience import FaultInjector
from repro.resilience.faults import BandwidthFault, FaultPlan, StragglerFault
from repro.simulator import NoiseModel
from repro.telemetry import Tracer

_durations = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-6, max_value=50.0, allow_nan=False),
    ),
    max_size=40,
)


def _per_task(model, compression_s, io_s):
    """The per-task calls (the reference); a zero I/O mean is a moved-out
    write, which draws nothing."""

    def io(duration):
        return model.perturb_io_time(duration) if duration else 0.0

    compression, writes = [], []
    for c, w in zip(compression_s, io_s):
        compression.append(model.perturb_compression_time(c))
        writes.append(io(w))
    writes += [io(w) for w in io_s[len(compression_s):]]
    return compression, writes


@settings(max_examples=200, deadline=None)
@given(
    compression_s=_durations,
    io_s=_durations,
    tail=_durations,
    seed=st.integers(0, 2**32 - 1),
    sigma=st.sampled_from([0.0, 0.05, 0.5]),
)
def test_one_call_equals_per_task_draws(
    compression_s, io_s, tail, seed, sigma
):
    n = min(len(compression_s), len(io_s))
    compression_s, io_s = compression_s[:n], io_s[:n] + tail
    sigmas = dict(compression_sigma_frac=sigma, io_sigma_frac=sigma)
    batched = NoiseModel(seed=seed, **sigmas)
    reference = NoiseModel(seed=seed, **sigmas)

    compression, io = batched.perturb_dump(
        np.array(compression_s, dtype=float), np.array(io_s, dtype=float)
    )
    expected = _per_task(reference, compression_s, io_s)

    assert compression.tolist() == expected[0]
    assert io.tolist() == expected[1]
    assert (
        batched._rng.bit_generator.state
        == reference._rng.bit_generator.state
    )


def test_sequential_clamp_matches_the_vector_form():
    """``max(normal(mu, s), 0.1 mu, 1e-12)`` one value at a time equals
    the ``np.maximum`` form over one vector draw, bit for bit."""
    means = np.linspace(1e-9, 3.0, 1000)
    one = np.random.default_rng(7)
    sequential = [
        max(float(one.normal(m, 0.5 * m)), m * 0.1, 1e-12)
        for m in means.tolist()
    ]
    vector = np.maximum(
        np.maximum(
            np.random.default_rng(7).normal(means, 0.5 * means),
            means * 0.1,
        ),
        1e-12,
    )
    assert vector.tolist() == sequential


_FAULTS = FaultPlan(
    bandwidth=BandwidthFault(probability=0.7, min_factor=0.1),
    straggler=StragglerFault(
        ranks=(1,), io_factor=2.5, compression_factor=1.5
    ),
)


def _replayed_draws(monkeypatch, rank, seed, iteration, injector):
    """The task durations ``execute_dump``'s first replay is handed."""
    seen = []
    real = runtime_module.execute_schedule

    def spy(schedule, actuals, **kwargs):
        seen.append(actuals)
        return real(schedule, actuals, **kwargs)

    monkeypatch.setattr(runtime_module, "execute_schedule", spy)
    rt = ProcessRuntime(
        rank,
        NyxModel(seed=3),
        ours_config(),
        node_size=4,
        noise=NoiseModel(seed=seed),
        injector=injector,
    )
    rt.observe_iteration(rt.app.iteration_profile(iteration - 1))
    rt.execute_dump(rt.plan_dump(iteration), iteration)
    return (
        np.array(seen[0].compression_times),
        np.array(seen[0].io_times),
    )


@pytest.mark.parametrize("rank", [0, 1], ids=["healthy", "straggler"])
@pytest.mark.parametrize("seed", range(4))
def test_execute_dump_scales_the_draws_by_the_fault_factors(
    monkeypatch, rank, seed
):
    """Replayed durations are the plain draws times the straggler
    factors over the bandwidth factor, and the injector is asked in the
    order a per-task draw would have asked it."""
    iteration = 1 + seed
    tracer = Tracer()
    injector = FaultInjector(_FAULTS, seed=seed, tracer=tracer)
    compression, io = _replayed_draws(
        monkeypatch, rank, seed, iteration, injector
    )
    plain_compression, plain_io = _replayed_draws(
        monkeypatch, rank, seed, iteration, None
    )

    twin_tracer = Tracer()
    twin = FaultInjector(_FAULTS, seed=seed, tracer=twin_tracer)
    compression_factor = twin.straggler_compression_factor(rank)
    io_factor = twin.straggler_io_factor(rank)
    bandwidth = twin.bandwidth_factor(rank, iteration)
    assert (compression_factor, io_factor) == (
        (1.5, 2.5) if rank == 1 else (1.0, 1.0)
    )
    assert compression.tolist() == (
        plain_compression * compression_factor
    ).tolist()
    expected_io = plain_io * io_factor
    if bandwidth != 1.0:
        expected_io = expected_io / bandwidth
    assert io.tolist() == expected_io.tolist()
    assert injector.log.report().injected == twin.log.report().injected
    assert _injections(tracer) == _injections(twin_tracer)


def _injections(tracer):
    return [
        (e.name, e.attrs)
        for e in tracer.recorder.events
        if e.name == "fault.injected"
    ]
