"""Integration tests: full campaigns across nodes and iterations."""

import pytest

from repro.apps import NyxModel, WarpXModel
from repro.framework import (
    CampaignRunner,
    async_io_config,
    baseline_config,
    compare,
    format_table,
    ours_config,
)
from repro.io import SimulatedFileSystem
from repro.resilience import FaultInjector, FaultPlan
from repro.simulator import ClusterSpec
from repro.telemetry import Tracer


def _run(app, config, solution, nodes=1, ppn=4, iterations=5, seed=1):
    cluster = ClusterSpec(num_nodes=nodes, processes_per_node=ppn)
    runner = CampaignRunner(app, cluster, config, solution=solution, seed=seed)
    return runner.run(iterations)


@pytest.fixture(scope="module")
def nyx():
    return NyxModel(seed=2)


class TestCampaignMechanics:
    def test_first_iteration_never_dumps(self, nyx):
        result = _run(nyx, ours_config(), "ours", iterations=3)
        assert not result.records[0].dumped
        assert result.records[1].dumped

    def test_dump_period_respected(self, nyx):
        result = _run(
            nyx, ours_config(dump_period=3), "ours", iterations=8
        )
        dumped = [r.iteration for r in result.records if r.dumped]
        assert dumped == [1, 4, 7]

    def test_overheads_nonnegative(self, nyx):
        result = _run(nyx, ours_config(), "ours", iterations=5)
        for record in result.records:
            assert record.overhead_s >= 0.0
            assert record.overall_s >= record.computation_s

    def test_non_dump_iterations_have_no_overhead(self, nyx):
        result = _run(nyx, ours_config(dump_period=2), "ours", iterations=6)
        for record in result.records:
            if not record.dumped:
                assert record.overhead_s == 0.0

    def test_per_rank_overheads_recorded(self, nyx):
        result = _run(nyx, ours_config(), "ours", nodes=1, ppn=4)
        dump = result.dump_records()[0]
        assert len(dump.per_rank_overhead) == 4

    def test_totals_consistent(self, nyx):
        result = _run(nyx, ours_config(), "ours", iterations=4)
        assert result.total_time == pytest.approx(
            result.total_computation + result.total_overhead
        )

    def test_virtual_clock_advances(self, nyx):
        cluster = ClusterSpec(num_nodes=1, processes_per_node=2)
        runner = CampaignRunner(nyx, cluster, ours_config(), seed=1)
        result = runner.run(3)
        assert runner.now == pytest.approx(result.total_time)


# A 2x2-rank, 4-iteration "ours" Nyx campaign under the sim engine:
# journal SHA-256 and (computation_s, overall_s, per_rank_overhead) per
# iteration, as written by the event-kernel clock this float replaced.
_CLOCK_GOLDEN = {
    23: (
        "17b9d2899483510de880740cf5f33ea1a6ca625e7221cc2916b56fe258f99b1c",
        [
            (4.184898886729472, 4.184898886729472, ()),
            (4.154170293052872, 6.812887186158407,
             (0.6301162757130455, 0.6323674570602574,
              0.6168348580406947, 0.6400115319181249)),
            (4.098159313227819, 6.7205249914272684,
             (0.6398886616572271, 0.6322836386420069,
              0.6382380236195102, 0.6357702083429239)),
            (4.221631791795797, 6.773207280891573,
             (0.5937493703554869, 0.6012026260320951,
              0.5973465711350627, 0.6044050298404606)),
        ],
    ),
    901: (
        "a6814441b45c372784ad3013cb49ee0aa169b90faaa5decb9d0670a54ed6eaab",
        [
            (4.219658257720851, 4.219658257720851, ()),
            (4.196732902708572, 6.864301219895206,
             (0.6154691500369384, 0.6354276522814745,
              0.6180635778199666, 0.6356297574870646)),
            (4.16244868103672, 6.681923347993513,
             (0.5988996208455654, 0.6018045299448376,
              0.6052866617755587, 0.6007001345889115)),
            (4.164882705777321, 6.569244990398627,
             (0.5733620457027627, 0.5739393470494546,
              0.5724912982097098, 0.577294117139504)),
        ],
    ),
}


class TestModelledClock:
    @pytest.mark.parametrize("seed", sorted(_CLOCK_GOLDEN))
    def test_journal_and_records_match_golden(self, seed, tmp_path):
        """``sim_now`` in every commit record is ``CampaignRunner.now``,
        so the journal is byte-identical to the event kernel's."""
        import hashlib

        from repro.engines import CampaignSpec, run_campaign

        spec = CampaignSpec(
            app="nyx", nodes=2, ppn=2, iterations=4,
            solution="ours", engine="sim", seed=seed,
        )
        path = tmp_path / "run.journal"
        report = run_campaign(spec, journal_path=str(path))
        report.close()
        sha, golden = _CLOCK_GOLDEN[seed]
        assert [
            (r.computation_s, r.overall_s, r.per_rank_overhead)
            for r in report.result.records
        ] == golden
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


class TestSolutionOrdering:
    """The paper's headline ordering must hold: ours < previous < baseline."""

    @pytest.fixture(scope="class")
    def overheads(self, nyx):
        out = {}
        for name, cfg in (
            ("baseline", baseline_config()),
            ("previous", async_io_config()),
            ("ours", ours_config()),
        ):
            out[name] = _run(nyx, cfg, name, iterations=5)
        return out

    def test_ordering(self, overheads):
        b = overheads["baseline"].mean_relative_overhead
        p = overheads["previous"].mean_relative_overhead
        o = overheads["ours"].mean_relative_overhead
        assert o < p < b

    def test_improvement_factors_in_paper_range(self, overheads):
        comp = compare(
            overheads["baseline"], overheads["previous"], overheads["ours"]
        )
        # Paper: up to 3.8x vs baseline, 2.6x vs async-only.  The shape
        # requirement: clearly >2x vs baseline and >1.5x vs previous.
        assert comp.improvement_over_baseline > 2.0
        assert comp.improvement_over_previous > 1.5

    def test_warpx_ordering_too(self):
        app = WarpXModel(seed=2)
        results = {}
        for name, cfg in (
            ("baseline", baseline_config()),
            ("previous", async_io_config()),
            ("ours", ours_config()),
        ):
            results[name] = _run(app, cfg, name, iterations=4)
        assert (
            results["ours"].mean_relative_overhead
            < results["previous"].mean_relative_overhead
            < results["baseline"].mean_relative_overhead
        )


class TestBalancingIntegration:
    def test_balancing_helps_at_end_stage(self):
        # End-of-run Nyx data has up to 20x intra-node ratio spread;
        # balancing should not hurt and typically helps.
        app = NyxModel(seed=5, total_iterations=10)
        with_bal = _run(
            app, ours_config(use_balancing=True), "bal", iterations=10
        )
        without = _run(
            app, ours_config(use_balancing=False), "nobal", iterations=10
        )
        late_with = [r for r in with_bal.dump_records() if r.iteration >= 7]
        late_without = [
            r for r in without.dump_records() if r.iteration >= 7
        ]
        mean_with = sum(r.relative_overhead for r in late_with) / len(
            late_with
        )
        mean_without = sum(
            r.relative_overhead for r in late_without
        ) / len(late_without)
        assert mean_with <= mean_without * 1.05

    def test_multi_node_campaign_runs(self, nyx):
        result = _run(nyx, ours_config(), "ours", nodes=2, ppn=4)
        assert result.dump_records()


class TestScaling:
    def test_baseline_degrades_with_scale_ours_stays_flat(self):
        app = NyxModel(seed=3)
        base_small = _run(
            app, baseline_config(), "b", nodes=2, ppn=4, iterations=4
        ).mean_relative_overhead
        base_large = _run(
            app, baseline_config(), "b", nodes=16, ppn=4, iterations=4
        ).mean_relative_overhead
        ours_small = _run(
            app, ours_config(), "o", nodes=2, ppn=4, iterations=4
        ).mean_relative_overhead
        ours_large = _run(
            app, ours_config(), "o", nodes=16, ppn=4, iterations=4
        ).mean_relative_overhead
        assert base_large > base_small * 1.1
        # Ours moves 16x less data; the absolute growth must be smaller.
        assert (ours_large - ours_small) < (base_large - base_small) / 3

    def test_mini_weak_scaling_shape(self):
        """A 2-point Figure 11: from 2x4 to 8x4 ranks the baseline's
        overhead grows, and ours moves by less than a third of that."""
        app = NyxModel(seed=63)
        overhead = {
            (name, nodes): _run(
                app, config, name, nodes=nodes, ppn=4, iterations=3, seed=63
            ).mean_relative_overhead
            for name, config in (
                ("baseline", baseline_config()),
                ("ours", ours_config()),
            )
            for nodes in (2, 8)
        }
        base_growth = overhead["baseline", 8] - overhead["baseline", 2]
        ours_growth = abs(overhead["ours", 8] - overhead["ours", 2])
        assert base_growth > 0
        assert ours_growth < base_growth / 3


class TestReport:
    def test_format_table(self):
        text = format_table(
            [("a", "1.0"), ("bb", "2.0")], headers=("name", "value")
        )
        assert "name" in text and "----" in text and "bb" in text

    def test_comparison_handles_zero_ours(self, nyx):
        result = _run(nyx, ours_config(), "ours", iterations=3)
        comp = compare(result, result, result)
        assert comp.improvement_over_baseline == pytest.approx(1.0)


class TestConfigPropagation:
    def test_subfiles_reduce_io_times(self, nyx):
        mono = _run(
            nyx, baseline_config(num_subfiles=1), "b1", nodes=8, ppn=4,
            iterations=3,
        ).mean_relative_overhead
        split = _run(
            nyx, baseline_config(num_subfiles=8), "b8", nodes=8, ppn=4,
            iterations=3,
        ).mean_relative_overhead
        assert split < mono

    def test_subfiles_noop_on_single_node(self, nyx):
        mono = _run(
            nyx, baseline_config(num_subfiles=1), "b1", nodes=1,
            iterations=3,
        ).mean_relative_overhead
        split = _run(
            nyx, baseline_config(num_subfiles=8), "b8", nodes=1,
            iterations=3,
        ).mean_relative_overhead
        assert split == pytest.approx(mono, rel=1e-6)

    def test_longer_dump_period_amortizes_overhead(self, nyx):
        frequent = _run(
            nyx, ours_config(dump_period=1), "p1", iterations=7
        )
        sparse = _run(
            nyx, ours_config(dump_period=3), "p3", iterations=7
        )
        # Same per-dump cost, fewer dumps: total overhead shrinks.
        assert sparse.total_overhead < frequent.total_overhead

    def test_invalid_subfiles_rejected(self):
        from repro.framework import FrameworkConfig

        with pytest.raises(ValueError):
            FrameworkConfig(num_subfiles=0)


class TestDeterminism:
    def test_same_seed_same_result(self, nyx):
        a = _run(nyx, ours_config(), "a", iterations=4, seed=9)
        b = _run(nyx, ours_config(), "b", iterations=4, seed=9)
        for ra, rb in zip(a.records, b.records):
            assert ra.overall_s == pytest.approx(rb.overall_s)
            assert ra.computation_s == pytest.approx(rb.computation_s)

    def test_different_seed_different_noise(self, nyx):
        a = _run(nyx, ours_config(), "a", iterations=4, seed=9)
        b = _run(nyx, ours_config(), "b", iterations=4, seed=10)
        dumps_a = [r.overall_s for r in a.dump_records()]
        dumps_b = [r.overall_s for r in b.dump_records()]
        assert dumps_a != dumps_b

    def test_oracle_mode_not_worse(self, nyx):
        predicted = _run(
            nyx, ours_config(), "p", iterations=5, seed=9
        ).mean_relative_overhead
        oracle = _run(
            nyx,
            ours_config(oracle_scheduling=True),
            "o",
            iterations=5,
            seed=9,
        ).mean_relative_overhead
        assert oracle <= predicted * 1.02

    @pytest.mark.parametrize("oracle", [False, True])
    def test_one_profile_draw_per_iteration(self, oracle, monkeypatch):
        """Every rank replays (and the oracle schedules) on the one
        profile the orchestrator drew for the iteration."""
        app = NyxModel(seed=2)
        drawn = []
        draw = app.iteration_profile

        def counted(iteration):
            drawn.append(iteration)
            return draw(iteration)

        monkeypatch.setattr(app, "iteration_profile", counted)
        _run(
            app,
            ours_config(oracle_scheduling=oracle),
            "ours",
            nodes=2,
            iterations=4,
        )
        assert drawn == [0, 1, 2, 3]


class TestFilesystemAccounting:
    def test_fault_free_campaign_never_writes_to_the_filesystem(
        self, monkeypatch
    ):
        def refuse(self, rank, nbytes):
            raise AssertionError("fault-free campaign wrote to the fs")

        monkeypatch.setattr(SimulatedFileSystem, "write", refuse)
        cluster = ClusterSpec(num_nodes=1, processes_per_node=2)
        runner = CampaignRunner(NyxModel(seed=2), cluster, ours_config())
        result = runner.run(3)
        assert len(result.dump_records()) == 2
        assert runner.filesystem is None

    def test_moved_blocks_are_written_by_their_receivers(self):
        """At an END-stage dump with balancing moves, each rank writes the
        blocks it kept and did not defer plus the ones moved in, at the
        donor's size: every block of every rank once, less the deferred
        ones."""
        tracer = Tracer()
        cluster = ClusterSpec(num_nodes=1, processes_per_node=4)
        runner = CampaignRunner(
            NyxModel(seed=2),
            cluster,
            ours_config(),
            tracer=tracer,
            injector=FaultInjector(FaultPlan()),
        )
        for iteration in range(22):
            runner.run_one(iteration)
        seen = len(tracer.recorder.events)
        runner.run_one(22)
        outcomes = runner.last_outcomes
        assert sum(len(o.plan.moved_in) for o in outcomes) > 0
        written = {rank: [] for rank in range(len(outcomes))}
        for event in tracer.recorder.events[seen:]:
            if event.name == "fs.write":
                written[event.attrs["rank"]].append(event.attrs["nbytes"])
        for rank, o in enumerate(outcomes):
            skipped = set(o.plan.moved_out) | {idx for idx, _ in o.deferred}
            expected = [
                size
                for idx, size in enumerate(o.actual_sizes)
                if idx not in skipped
            ] + [
                outcomes[ref.owner].actual_sizes[ref.job_index]
                for ref in o.plan.moved_in
            ]
            assert len(written[rank]) == len(expected), rank
            assert sum(written[rank]) == sum(expected), rank
        kept = [
            size
            for o in outcomes
            for idx, size in enumerate(o.actual_sizes)
            if idx not in {i for i, _ in o.deferred}
        ]
        everything = [n for sizes in written.values() for n in sizes]
        assert len(everything) == len(kept)
        assert sum(everything) == sum(kept)

    def test_compressed_campaign_writes_less(self, nyx):
        cluster = ClusterSpec(num_nodes=1, processes_per_node=2)
        written = {}
        for name, config in (
            ("ours", ours_config()),
            ("baseline", baseline_config()),
        ):
            runner = CampaignRunner(nyx, cluster, config, seed=4)
            runner.run(2)  # one dump
            written[name] = sum(
                sum(o.actual_sizes) for o in runner.last_outcomes
            )
        assert written["ours"] < written["baseline"] / 4
