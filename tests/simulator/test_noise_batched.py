"""The one-call dump draw against the per-task draws it replaced.

``NoiseModel.perturb_dump`` must return, bit for bit, what one
``perturb_compression_time`` and one ``perturb_io_time`` call per task
returns (each job's compression, then its I/O, then the write-only
tail), and leave the generator in the same state.  Under
``FaultAwareNoiseModel`` both paths scale by the straggler and bandwidth
factors, and the injector is asked in the same order, so its tallies
and its ``fault.injected`` events do not move.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import figure1_instance
from repro.resilience import FaultInjector
from repro.resilience.faults import BandwidthFault, FaultPlan, StragglerFault
from repro.simulator import FaultAwareNoiseModel, NoiseModel
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
    write, which drew nothing and asked the injector nothing."""

    def io(duration):
        return model.perturb_io_time(duration) if duration else 0.0

    compression, writes = [], []
    for c, w in zip(compression_s, io_s):
        compression.append(model.perturb_compression_time(c))
        writes.append(io(w))
    writes += [io(w) for w in io_s[len(compression_s):]]
    return compression, writes


def _model(kind, seed, sigma):
    sigmas = dict(compression_sigma_frac=sigma, io_sigma_frac=sigma)
    if kind == "plain":
        return NoiseModel(seed=seed, **sigmas), None
    tracer = Tracer()
    plan = FaultPlan(
        bandwidth=BandwidthFault(probability=0.7, min_factor=0.1),
        straggler=StragglerFault(
            ranks=(1,), io_factor=2.5, compression_factor=1.5
        ),
    )
    injector = FaultInjector(plan, seed=seed, tracer=tracer)
    model = FaultAwareNoiseModel(
        injector=injector, rank=1 if kind == "straggler" else 0,
        seed=seed, **sigmas,
    )
    model.set_fault_context(seed % 5)
    return model, tracer


@settings(max_examples=200, deadline=None)
@given(
    compression_s=_durations,
    io_s=_durations,
    tail=_durations,
    seed=st.integers(0, 2**32 - 1),
    sigma=st.sampled_from([0.0, 0.05, 0.5]),
    kind=st.sampled_from(["plain", "healthy", "straggler"]),
)
def test_one_call_equals_per_task_draws(
    compression_s, io_s, tail, seed, sigma, kind
):
    n = min(len(compression_s), len(io_s))
    compression_s, io_s = compression_s[:n], io_s[:n] + tail
    batched, batched_trace = _model(kind, seed, sigma)
    reference, reference_trace = _model(kind, seed, sigma)

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
    if batched_trace is not None:
        assert batched.injector.log.report() == (
            reference.injector.log.report()
        )
        assert [
            (e.name, e.attrs) for e in batched_trace.recorder.events
        ] == [(e.name, e.attrs) for e in reference_trace.recorder.events]


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


def test_per_task_draws_apply_the_straggler_factors():
    """``actual_durations`` goes through the per-task methods, which
    scale by the rank's straggler factors too."""
    plan = FaultPlan(
        straggler=StragglerFault(
            ranks=(1,), io_factor=2.5, compression_factor=1.5
        )
    )
    model = FaultAwareNoiseModel(
        injector=FaultInjector(plan, seed=3),
        rank=1,
        interval_sigma_frac=0.0,
        compression_sigma_frac=0.0,
        io_sigma_frac=0.0,
    )
    actuals = model.actual_durations(figure1_instance(), (2.0, 4.0), (1.0,))
    assert actuals.compression_times == (3.0, 6.0)
    assert actuals.io_times == (2.5,)
    with pytest.raises(TypeError):  # only set_fault_context sets it
        FaultAwareNoiseModel(injector=model.injector, rank=1, iteration=4)
