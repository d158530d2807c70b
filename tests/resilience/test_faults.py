"""FaultInjector: determinism, caching, and per-class validation."""

import pytest

from repro.resilience import (
    BandwidthFault,
    CompressionFault,
    FaultInjector,
    FaultPlan,
    StallFault,
    StragglerFault,
    WriteErrorFault,
)

_FULL_PLAN = FaultPlan(
    stall=StallFault(probability=0.3, mean_duration_s=0.5),
    write_error=WriteErrorFault(probability=0.4),
    bandwidth=BandwidthFault(probability=0.3, min_factor=0.1),
    compression=CompressionFault(probability=0.2),
    straggler=StragglerFault(ranks=(1,), io_factor=2.0,
                             compression_factor=1.5),
)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultInjector(_FULL_PLAN, seed=42)
        b = FaultInjector(_FULL_PLAN, seed=42)
        for rank in range(4):
            for it in range(5):
                for task in range(3):
                    assert a.io_stall_s(rank, it, task) == b.io_stall_s(
                        rank, it, task
                    )
                    assert a.write_error(rank, it, task) == b.write_error(
                        rank, it, task
                    )
                assert a.bandwidth_factor(rank, it) == b.bandwidth_factor(
                    rank, it
                )
                assert a.compression_fails(rank, it, 0) == (
                    b.compression_fails(rank, it, 0)
                )

    def test_query_order_does_not_matter(self):
        a = FaultInjector(_FULL_PLAN, seed=7)
        b = FaultInjector(_FULL_PLAN, seed=7)
        keys = [(r, i, t) for r in range(3) for i in range(3)
                for t in range(2)]
        forward = [a.io_stall_s(*k) for k in keys]
        backward = [b.io_stall_s(*k) for k in reversed(keys)]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        a = FaultInjector(_FULL_PLAN, seed=1)
        b = FaultInjector(_FULL_PLAN, seed=2)
        draws_a = [a.io_stall_s(r, i, 0) for r in range(8)
                   for i in range(8)]
        draws_b = [b.io_stall_s(r, i, 0) for r in range(8)
                   for i in range(8)]
        assert draws_a != draws_b

    def test_fault_kinds_independent(self):
        # Same key, different fault class: the per-kind salts keep the
        # underlying draws from being the same uniform.
        inj = FaultInjector(
            FaultPlan(
                stall=StallFault(probability=0.5),
                write_error=WriteErrorFault(probability=0.5),
            ),
            seed=3,
        )
        stalls = [inj.io_stall_s(r, 0, 0) > 0 for r in range(64)]
        errors = [inj.write_error(r, 0, 0) for r in range(64)]
        assert stalls != errors


class TestCachingAndLog:
    def test_repeated_query_counted_once(self):
        inj = FaultInjector(
            FaultPlan(stall=StallFault(probability=1.0)), seed=0
        )
        first = inj.io_stall_s(0, 0, 0)
        for _ in range(5):
            assert inj.io_stall_s(0, 0, 0) == first
        assert inj.log.injected["stall"] == 1

    def test_non_firing_draw_not_logged(self):
        inj = FaultInjector(
            FaultPlan(stall=StallFault(probability=0.0)), seed=0
        )
        assert inj.io_stall_s(0, 0, 0) == 0.0
        assert "stall" not in inj.log.injected

    def test_bandwidth_scopes_independent(self):
        plan = FaultPlan(bandwidth=BandwidthFault(probability=0.5))
        inj = FaultInjector(plan, seed=9)
        by_scope0 = [inj.bandwidth_factor(r, 0, scope=0) for r in range(64)]
        by_scope1 = [inj.bandwidth_factor(r, 0, scope=1) for r in range(64)]
        assert by_scope0 != by_scope1

    def test_straggler_factors_and_single_count(self):
        inj = FaultInjector(_FULL_PLAN, seed=0)
        assert inj.straggler_io_factor(0) == 1.0
        assert inj.straggler_io_factor(1) == 2.0
        assert inj.straggler_compression_factor(1) == 1.5
        inj.straggler_io_factor(1)
        assert inj.log.injected["straggler"] == 1
        assert inj.log.straggler_ranks == (1,)

    def test_stall_length_heavy_tailed_positive(self):
        inj = FaultInjector(
            FaultPlan(stall=StallFault(probability=1.0,
                                       mean_duration_s=0.2)),
            seed=5,
        )
        stalls = [inj.io_stall_s(r, i, 0) for r in range(10)
                  for i in range(10)]
        assert all(s > 0 for s in stalls)
        assert max(stalls) > min(stalls)

    def test_bandwidth_factor_bounds(self):
        inj = FaultInjector(
            FaultPlan(bandwidth=BandwidthFault(probability=1.0,
                                               min_factor=0.25)),
            seed=5,
        )
        factors = [inj.bandwidth_factor(r, i) for r in range(10)
                   for i in range(10)]
        assert all(0.25 <= f < 1.0 for f in factors)


class TestPlanValidation:
    @pytest.mark.parametrize(
        "cls,kwargs,field",
        [
            (StallFault, {"probability": 1.5}, "stall.probability"),
            (StallFault, {"mean_duration_s": 0.0},
             "stall.mean_duration_s"),
            (StallFault, {"tail_alpha": -1.0}, "stall.tail_alpha"),
            (WriteErrorFault, {"probability": -0.1},
             "write_error.probability"),
            (BandwidthFault, {"min_factor": 0.0}, "bandwidth.min_factor"),
            (BandwidthFault, {"min_factor": 1.5}, "bandwidth.min_factor"),
            (CompressionFault, {"probability": 2.0},
             "compression.probability"),
            (StragglerFault, {"ranks": (-1,)}, "straggler.ranks"),
            (StragglerFault, {"io_factor": 0.5}, "straggler.io_factor"),
            (StragglerFault, {"compression_factor": 0.0},
             "straggler.compression_factor"),
        ],
    )
    def test_bad_field_named_in_error(self, cls, kwargs, field):
        with pytest.raises(ValueError, match=field.replace(".", r"\.")):
            cls(**kwargs)

    def test_any_faults(self):
        assert not FaultPlan().any_faults
        assert not FaultPlan(stall=StallFault(probability=0.0)).any_faults
        assert FaultPlan(stall=StallFault(probability=0.1)).any_faults
        assert FaultPlan(
            straggler=StragglerFault(ranks=(0,), io_factor=2.0)
        ).any_faults


class TestWorkerFault:
    def _injector(self, seed=3, **kwargs):
        from repro.resilience import WorkerFault

        return FaultInjector(
            FaultPlan(worker=WorkerFault(**kwargs)), seed=seed
        )

    def test_deterministic_and_cached(self):
        a = self._injector(kind="kill")
        b = self._injector(kind="kill")
        for rank in range(3):
            for attempt in range(2):
                assert a.worker_fault(rank, 1, attempt) == b.worker_fault(
                    rank, 1, attempt
                )
        # Re-querying the same key counts the injection exactly once.
        a.worker_fault(0, 1, 0)
        a.worker_fault(0, 1, 0)
        assert a.log.injected.get("worker-kill") == b.log.injected.get(
            "worker-kill"
        )

    def test_rank_and_iteration_filters(self):
        inj = self._injector(kind="kill", rank=1, iteration=2)
        assert inj.worker_fault(0, 2, 0) is None
        assert inj.worker_fault(1, 1, 0) is None
        assert inj.worker_fault(1, 2, 0) == ("kill", 2.0)

    def test_wildcards_match_everything(self):
        inj = self._injector(kind="error", rank=-1, iteration=-1)
        assert inj.worker_fault(0, 0, 0) == ("error", 2.0)
        assert inj.worker_fault(7, 9, 0) == ("error", 2.0)

    def test_attempt_budget_spares_retries(self):
        inj = self._injector(kind="kill", attempts=2)
        assert inj.worker_fault(0, 0, 0) is not None
        assert inj.worker_fault(0, 0, 1) is not None
        assert inj.worker_fault(0, 0, 2) is None

    def test_stall_carries_duration(self):
        inj = self._injector(kind="stall", stall_s=7.5)
        assert inj.worker_fault(0, 0, 0) == ("stall", 7.5)

    def test_zero_probability_never_fires(self):
        inj = self._injector(kind="kill", probability=0.0)
        assert inj.worker_fault(0, 0, 0) is None
        assert "worker-kill" not in inj.log.injected

    def test_any_faults_counts_modelled_faults_only(self):
        # A real-plane fault breaks workers, a process kill the driver:
        # neither touches the modelled campaign.
        from repro.resilience import ProcessKillFault, WorkerFault

        assert not FaultPlan(worker=WorkerFault()).any_faults
        assert not FaultPlan(process_kill=ProcessKillFault()).any_faults
        assert FaultPlan(
            worker=WorkerFault(), stall=StallFault(probability=0.1)
        ).any_faults

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"kind": "explode"}, "worker.kind"),
            ({"rank": -2}, "worker.rank"),
            ({"iteration": -5}, "worker.iteration"),
            ({"attempts": 0}, "worker.attempts"),
            ({"stall_s": 0.0}, "worker.stall_s"),
            ({"probability": 1.5}, "worker.probability"),
        ],
    )
    def test_bad_field_named_in_error(self, kwargs, field):
        from repro.resilience import WorkerFault

        with pytest.raises(ValueError, match=field.replace(".", r"\.")):
            WorkerFault(**kwargs)
