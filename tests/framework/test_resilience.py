"""End-to-end fault campaigns: graceful degradation and reproducibility."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import NyxModel
from repro.resilience import CRASH_POINTS
from repro.engines import CampaignSpec, run_campaign
from repro.framework import CampaignRunner, FrameworkConfig, ours_config
from repro.resilience import (
    WORKER_FAULT_KINDS,
    BandwidthFault,
    CompressionFault,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    StallFault,
    StragglerFault,
    WriteErrorFault,
)
from repro.simulator import ClusterSpec, NoiseModel
from repro.telemetry import NULL_TRACER, Tracer

_PLAN = FaultPlan(
    stall=StallFault(probability=0.15, mean_duration_s=0.3),
    write_error=WriteErrorFault(probability=0.25),
    bandwidth=BandwidthFault(probability=0.2, min_factor=0.1),
    compression=CompressionFault(probability=0.1),
    straggler=StragglerFault(ranks=(0,), io_factor=2.5,
                             compression_factor=1.5),
)
_CLUSTER = ClusterSpec(num_nodes=2, processes_per_node=2)


def _run(
    plan=_PLAN, seed=7, iterations=6, tracer=NULL_TRACER, config=None,
    noise=None,
):
    runner = CampaignRunner(
        NyxModel(seed=seed),
        _CLUSTER,
        config or ours_config(),
        seed=seed,
        noise=noise,
        injector=(
            FaultInjector(plan, seed=seed, tracer=tracer) if plan else None
        ),
        retry=RetryPolicy(max_attempts=4, deadline_s=5.0),
        tracer=tracer,
    )
    return runner.run(iterations)


class TestFaultCampaign:
    def test_completes_with_populated_report(self):
        result = _run()
        report = result.resilience
        assert report is not None
        injected = dict(report.injected)
        # Every configured fault class fired at least once.
        for kind in (
            "stall", "write_error", "bandwidth", "compression", "straggler"
        ):
            assert injected.get(kind, 0) > 0, kind
        assert report.retries > 0
        assert report.retry_successes > 0
        assert report.total_fallbacks > 0
        assert report.straggler_ranks == (0,)
        # Every exhausted write was deferred, not lost.
        assert report.deferred_writes >= report.write_failures

    def test_same_seed_reproduces_exactly(self):
        a = _run()
        b = _run()
        assert a.resilience == b.resilience
        assert a.total_time == pytest.approx(b.total_time)
        assert [r.overall_s for r in a.records] == pytest.approx(
            [r.overall_s for r in b.records]
        )

    def test_different_seed_differs(self):
        a = _run(seed=7)
        b = _run(seed=8)
        assert a.resilience != b.resilience

    def test_faults_cost_time_not_correctness(self):
        clean = _run(plan=None)
        faulty = _run()
        assert clean.resilience is None
        assert faulty.total_time > clean.total_time
        assert len(faulty.records) == len(clean.records)

    def test_resilience_metrics_merged(self):
        result = _run()
        assert result.metrics["resilience.injected"] == float(
            result.resilience.total_injected
        )
        assert result.metrics["resilience.retries"] == float(
            result.resilience.retries
        )
        clean = _run(plan=None)
        assert not any(
            k.startswith("resilience.") for k in clean.metrics
        )

    def test_telemetry_names_emitted(self):
        tracer = Tracer()
        result = _run(tracer=tracer, iterations=4)
        counters = tracer.recorder.counters
        for name in ("fault.injected", "io.retry", "runtime.fallback"):
            assert counters.get(name, 0) > 0, name
        events = {e.name for e in tracer.recorder.events}
        assert {"fault.injected", "io.retry", "runtime.fallback"} <= events
        assert result.resilience.retries == counters["io.retry"]

    def test_write_error_only_plan(self):
        plan = FaultPlan(write_error=WriteErrorFault(probability=0.3))
        result = _run(plan=plan)
        report = result.resilience
        assert set(dict(report.injected)) == {"write_error"}
        assert report.retries > 0

    def test_overrun_guard_defers_io(self):
        # Saturating stalls force dumps past the overrun deadline.
        plan = FaultPlan(
            stall=StallFault(probability=0.9, mean_duration_s=2.0)
        )
        config = ours_config()
        import dataclasses

        config = dataclasses.replace(config, overrun_deadline_frac=0.2)
        result = _run(plan=plan, config=config)
        report = result.resilience
        assert report.overrun_iterations > 0
        assert dict(report.fallbacks).get("defer-io", 0) > 0

    def test_caller_noise_keeps_the_straggler(self):
        # A caller's own noise model draws the durations; the runtime
        # still slows the straggler rank down on top of them.
        plan = FaultPlan(
            straggler=StragglerFault(
                ranks=(0,), io_factor=3.0, compression_factor=2.0
            )
        )
        clean = _run(plan=None, noise=NoiseModel(seed=9))
        faulty = _run(plan=plan, noise=NoiseModel(seed=9))
        assert dict(faulty.resilience.injected) == {"straggler": 1}
        assert faulty.resilience.straggler_ranks == (0,)
        assert faulty.mean_relative_overhead > (
            clean.mean_relative_overhead * 1.5
        )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"scheduler": ""}, "FrameworkConfig.scheduler"),
            ({"scheduler": "NoSuchAlgorithm"},
             "FrameworkConfig.scheduler"),
            ({"block_bytes": 0}, "FrameworkConfig.block_bytes"),
            ({"buffer_bytes": -1}, "FrameworkConfig.buffer_bytes"),
            ({"balancing_threshold": 1.0},
             "FrameworkConfig.balancing_threshold"),
            ({"dump_period": 0}, "FrameworkConfig.dump_period"),
            ({"num_subfiles": 0}, "FrameworkConfig.num_subfiles"),
            ({"overrun_deadline_frac": -0.1},
             "FrameworkConfig.overrun_deadline_frac"),
        ],
    )
    def test_bad_field_named_in_error(self, kwargs, field):
        with pytest.raises(ValueError, match=field.replace(".", r"\.")):
            FrameworkConfig(**kwargs)

    def test_unknown_scheduler_lists_available(self):
        with pytest.raises(ValueError, match="ExtJohnson"):
            FrameworkConfig(scheduler="NoSuchAlgorithm")

    def test_defaults_valid(self):
        FrameworkConfig()


# ----------------------------------------------------------------------
# a fault plan with no modelled fault must change nothing
# ----------------------------------------------------------------------
_probability = st.floats(min_value=0.0, max_value=1.0)

#: Spec sections that name a fault class and can never fire in the model:
#: real-plane and crash faults at any probability, modelled ones at zero.
_INERT_SECTIONS = {
    "seed": st.integers(min_value=0, max_value=2**31),
    "worker": st.fixed_dictionaries(
        {
            "kind": st.sampled_from(WORKER_FAULT_KINDS),
            "rank": st.integers(min_value=-1, max_value=1),
            "iteration": st.integers(min_value=-1, max_value=3),
            "attempts": st.integers(min_value=1, max_value=99),
            "probability": _probability,
        }
    ),
    "process_kill": st.fixed_dictionaries(
        {
            "iteration": st.integers(min_value=-1, max_value=3),
            "point": st.sampled_from(sorted(CRASH_POINTS)),
            "probability": _probability,
        }
    ),
    "stall": st.fixed_dictionaries(
        {
            "probability": st.just(0.0),
            "mean_duration_s": st.floats(min_value=0.01, max_value=5.0),
        }
    ),
    "write_error": st.just({"probability": 0.0}),
    "bandwidth": st.fixed_dictionaries(
        {
            "probability": st.just(0.0),
            "min_factor": st.floats(min_value=0.05, max_value=1.0),
        }
    ),
    "compression": st.just({"probability": 0.0}),
    "straggler": st.fixed_dictionaries(
        {
            "ranks": st.just([]),
            "io_factor": st.floats(min_value=1.0, max_value=4.0),
        }
    ),
}


class TestPlanWithNoModelledFaultChangesNothing:
    """Attaching an injector that can inject nothing into the model —
    a bare seed, only real-plane ``worker`` faults, only ``process_kill``
    (no journal, so it cannot fire), every probability zero — yields the
    fault-free campaign, record for record."""

    @staticmethod
    def _run(faults):
        spec = CampaignSpec(
            nodes=1, ppn=2, iterations=4, seed=7, faults=faults
        )
        return run_campaign(spec).result

    @settings(max_examples=40, deadline=None)
    @given(st.fixed_dictionaries({}, optional=_INERT_SECTIONS))
    def test_records_equal_the_fault_free_run(self, faults):
        clean = self._run(None)
        inert = self._run(faults)
        assert inert.records == clean.records
        assert inert.total_time == clean.total_time
        # The injector and its log still reach the report.
        report = inert.resilience
        assert report is not None
        assert report.total_fallbacks == 0
        assert report.overrun_iterations == 0
        assert report.degraded_dumps == 0

    def test_one_modelled_fault_does_change_it(self):
        # The property is not vacuous: the same campaign moves as soon
        # as one modelled fault can fire.
        clean = self._run(None)
        faulted = self._run({"seed": 1, "stall": {"probability": 0.5}})
        assert faulted.records != clean.records
