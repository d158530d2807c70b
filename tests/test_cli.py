"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--version"])
        assert info.value.code == 0
        assert "repro 1.0.0" in capsys.readouterr().out

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.instance == "figure1"
        assert not args.ilp

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "--app", "warpx", "--nodes", "2", "--solution", "ours"]
        )
        assert args.app == "warpx"
        assert args.nodes == 2

    def test_campaign_faults_option(self):
        args = build_parser().parse_args(
            ["campaign", "--faults", "spec.yaml", "--seed", "9"]
        )
        assert args.faults == "spec.yaml"
        assert args.seed == 9
        assert build_parser().parse_args(["campaign"]).faults is None

    def test_journal_and_resume_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["campaign", "--journal", "a", "--resume", "b"]
            )
        assert exc.value.code == 2
        assert "not allowed with argument --journal" in (
            capsys.readouterr().err
        )


class TestCommands:
    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for experiment in (
            "Table 1",
            "Figure 3",
            "Figure 9",
            "Figure 11",
            "Artifact B.5",
        ):
            assert experiment in out

    def test_schedule_figure1(self, capsys):
        assert main(["schedule"]) == 0
        out = capsys.readouterr().out
        assert "ExtJohnson+BF" in out
        assert "12.000" in out  # the Figure 1d optimum
        assert "lower bound" in out

    def test_schedule_random_with_ilp(self, capsys):
        assert main(
            ["schedule", "--instance", "random", "--jobs", "3", "--ilp"]
        ) == 0
        out = capsys.readouterr().out
        assert "ILP" in out

    def test_compress_sz(self, capsys):
        assert main(["compress", "--codec", "sz", "--size", "16"]) == 0
        out = capsys.readouterr().out
        assert "SZ-style" in out
        assert "compression ratio" in out

    def test_compress_zfp(self, capsys):
        assert (
            main(["compress", "--codec", "zfp", "--size", "16", "--rate", "12"])
            == 0
        )
        out = capsys.readouterr().out
        assert "fixed rate 12" in out

    def test_campaign_single_solution(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--nodes",
                    "1",
                    "--ppn",
                    "2",
                    "--iterations",
                    "3",
                    "--solution",
                    "ours",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ours" in out
        assert "%" in out

    def test_campaign_all_solutions_ordering(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--nodes",
                    "1",
                    "--ppn",
                    "2",
                    "--iterations",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "baseline" in out and "previous" in out and "ours" in out


class TestFaultCampaignCommand:
    _ARGS = [
        "campaign",
        "--nodes", "1",
        "--ppn", "2",
        "--iterations", "3",
        "--solution", "ours",
        "--seed", "7",
    ]

    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "write_error: {probability: 0.4}\n"
            "stall: {probability: 0.3, mean_duration_s: 0.3}\n"
            "straggler: {ranks: [0], io_factor: 2.0}\n"
        )
        return str(path)

    def test_prints_resilience_report(self, spec_path, capsys):
        assert main([*self._ARGS, "--faults", spec_path]) == 0
        out = capsys.readouterr().out
        assert "resilience [ours]" in out
        assert "faults injected:" in out
        assert "write retries:" in out

    def test_same_seed_same_report(self, spec_path, capsys):
        assert main([*self._ARGS, "--faults", spec_path]) == 0
        first = capsys.readouterr().out
        assert main([*self._ARGS, "--faults", spec_path]) == 0
        assert capsys.readouterr().out == first

    def test_no_faults_no_report(self, capsys):
        assert main(self._ARGS) == 0
        assert "resilience" not in capsys.readouterr().out

    def test_bad_spec_exits_2_naming_field(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("stall: {probability: 2.0}\n")
        assert main([*self._ARGS, "--faults", str(path)]) == 2
        assert "stall.probability" in capsys.readouterr().err

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.yaml")
        assert main([*self._ARGS, "--faults", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_out_records_fault_events(self, spec_path, tmp_path,
                                            capsys):
        from repro.telemetry import read_jsonl

        trace = tmp_path / "trace.jsonl"
        assert (
            main([*self._ARGS, "--faults", spec_path,
                  "--trace-out", str(trace)])
            == 0
        )
        counters = read_jsonl(str(trace)).counters
        assert counters.get("fault.injected", 0) > 0
        assert counters.get("runtime.fallback", 0) >= 0


class TestSnapshotCommand:
    def test_snapshot_shared(self, tmp_path, capsys):
        out = tmp_path / "snap.rpio"
        assert main(["snapshot", str(out), "--size", "16"]) == 0
        text = capsys.readouterr().out
        assert "snapshot verified" in text
        assert out.exists()

    def test_snapshot_subfiled(self, tmp_path, capsys):
        out = tmp_path / "snapdir"
        assert (
            main(
                [
                    "snapshot",
                    str(out),
                    "--layout",
                    "subfiled",
                    "--size",
                    "12",
                    "--fields",
                    "2",
                ]
            )
            == 0
        )
        assert (out / "index.json").exists()

    def test_snapshot_hacc(self, tmp_path, capsys):
        out = tmp_path / "hacc.rpio"
        assert (
            main(
                ["snapshot", str(out), "--app", "hacc", "--size", "8"]
            )
            == 0
        )
        assert "verified" in capsys.readouterr().out


class TestEnginesCli:
    def test_engines_list(self, capsys):
        assert main(["engines", "list"]) == 0
        out = capsys.readouterr().out
        assert "sim" in out
        assert "process" in out
        assert "SimulatorEngine" in out

    def test_campaign_engine_flag_default(self):
        args = build_parser().parse_args(["campaign"])
        assert args.engine == "sim"
        assert args.data_out is None
        assert args.workers is None

    def test_campaign_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--engine", "mpi"])

    def test_registered_engine_is_selectable(self, monkeypatch):
        """``--engine`` offers whatever the registry holds, not a
        hard-coded pair."""
        from repro.engines import SimulatorEngine, base, register_engine

        monkeypatch.setattr(base, "_REGISTRY", dict(base._REGISTRY))

        @register_engine
        class Throwaway(SimulatorEngine):
            name = "throwaway"

        parser = build_parser()
        for argv in (
            ["campaign"],
            ["submit", "solve"],
            ["submit", "campaign"],
        ):
            args = parser.parse_args([*argv, "--engine", "throwaway"])
            assert args.engine == "throwaway"

    def test_campaign_process_engine(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert (
            main(
                [
                    "campaign",
                    "--nodes", "1",
                    "--ppn", "2",
                    "--iterations", "3",
                    "--solution", "ours",
                    "--engine", "process",
                    "--data-out", str(data_dir),
                    "--data-edge", "8",
                    "--workers", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "data plane [ours/process]" in out
        assert any(data_dir.glob("*.rpio"))

    def test_campaign_engines_agree_on_overheads(self, capsys):
        common = [
            "campaign",
            "--nodes", "1",
            "--ppn", "2",
            "--iterations", "3",
            "--solution", "ours",
        ]
        assert main(common + ["--engine", "sim"]) == 0
        sim_out = capsys.readouterr().out
        assert main(common + ["--engine", "process"]) == 0
        process_out = capsys.readouterr().out
        # The modelled overhead table is engine-independent.
        assert sim_out.splitlines()[:3] == process_out.splitlines()[:3]

    def test_campaign_journal_resume_under_process_engine(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "run.journal"
        args = [
            "campaign",
            "--nodes", "1",
            "--ppn", "2",
            "--iterations", "3",
            "--solution", "ours",
            "--engine", "process",
            "--journal", str(journal),
        ]
        assert main(args) == 0
        capsys.readouterr()
        # Chop the journal after one committed iteration and resume.
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:3]))
        assert main(["campaign", "--resume", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "resuming ours campaign" in out
        assert "1/3 iterations already committed" in out


def _subparser(parser, *path):
    for name in path:
        (action,) = [
            a
            for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        parser = action.choices[name]
    return parser


def _option_strings(parser):
    return {
        s
        for a in parser._actions
        for s in a.option_strings
        if s not in ("-h", "--help")
    }


_CLIENT = {"--host", "--port", "--timeout", "--retries", "--retry-deadline"}
_INSTANCE = {"--instance", "--jobs", "--seed"}
_CAMPAIGN = {"--app", "--nodes", "--ppn", "--iterations", "--seed", "--engine"}

#: Every subcommand's options.  A new flag is a deliberate diff here.
_OPTIONS = {
    (): {"--version"},
    ("schedule",): _INSTANCE | {"--trace-out", "--algorithm", "--ilp"},
    ("campaign",): _CAMPAIGN | {
        "--trace-out", "--solution", "--faults", "--data-out",
        "--data-edge", "--workers", "--task-deadline",
        "--max-task-retries", "--speculative-frac", "--journal",
        "--resume", "--report-out",
    },
    ("verify",): {"--kind"},
    ("compress",): {
        "--codec", "--backend", "--field", "--size", "--error-bound",
        "--rate", "--seed",
    },
    ("snapshot",): {"--app", "--size", "--fields", "--layout", "--seed"},
    ("serve",): {
        "--trace-out", "--host", "--port", "--workers", "--max-queue",
        "--cache-size", "--cache-dir", "--quota-rate", "--quota-burst",
        "--ledger", "--drain-deadline", "--supervised",
        "--heartbeat-file", "--hang-timeout", "--max-restarts",
        "--restart-backoff",
    },
    ("submit", "solve"): _CLIENT | _INSTANCE | {
        "--algorithm", "--engine", "--time-limit", "--tenant",
        "--priority", "--deadline", "--no-cache",
    },
    ("submit", "campaign"): _CLIENT | _CAMPAIGN | {
        "--solution", "--tenant", "--journal",
    },
    ("submit", "status"): _CLIENT,
    ("submit", "health"): _CLIENT,
    ("submit", "shutdown"): _CLIENT,
    ("experiments",): set(),
    ("engines", "list"): set(),
}


class TestOptionTable:
    @pytest.mark.parametrize(
        "path", sorted(_OPTIONS), ids=lambda p: " ".join(p) or "repro"
    )
    def test_options_pinned(self, path):
        parser = _subparser(build_parser(), *path)
        assert _option_strings(parser) == _OPTIONS[path]

    def test_every_subcommand_pinned(self):
        paths = set()

        def walk(parser, path):
            paths.add(path)
            for a in parser._actions:
                if isinstance(a, argparse._SubParsersAction):
                    paths.discard(path)
                    for name, child in a.choices.items():
                        walk(child, (*path, name))

        walk(build_parser(), ())
        assert paths == set(_OPTIONS) - {()}

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--breaker-threshold", "0.5"],
            ["serve", "--breaker-window", "8"],
            ["serve", "--breaker-cooldown", "5"],
            ["serve", "--heartbeat-interval", "1"],
            ["schedule", "--engine", "sim"],
            ["submit", "solve", "--no-retry"],
            ["submit", "campaign", "--no-retry"],
            ["submit", "status", "--no-retry"],
        ],
        ids=" ".join,
    )
    def test_removed_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_shared_groups_keep_each_commands_defaults(self):
        parser = build_parser()

        def parse(*argv):
            return parser.parse_args(list(argv))

        assert parse("schedule").seed == 0
        assert parse("submit", "solve").seed == 0
        assert parse("campaign").seed == 1
        assert parse("submit", "campaign").seed == 1
        assert parse("campaign").solution == "all"
        assert parse("submit", "campaign").solution == "ours"
        assert parse("submit", "solve").retries == 5
        assert parse("schedule").trace_out is None


class TestSupervisedServe:
    @pytest.mark.parametrize("flag", ["--s", "--sup", "--supervised"])
    def test_child_runs_unsupervised(self, flag, monkeypatch):
        """The child's argv is built from main's argv with every
        spelling of --supervised removed, never from sys.argv."""
        import signal
        import sys

        import repro.service

        children = []

        class Recorder:
            def __init__(self, child_argv, **kwargs):
                children.append(child_argv)

            def request_stop(self):
                pass

            def run(self):
                return 0

        monkeypatch.setattr(repro.service, "Watchdog", Recorder)
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        monkeypatch.setattr(
            sys, "argv", ["repro", "serve", "--supervised", "--from-sys"]
        )
        assert main(["serve", flag, "--port", "0"]) == 0
        (child,) = children
        assert child[:4] == [sys.executable, "-m", "repro", "serve"]
        assert child[4:6] == ["--port", "0"]
        assert child[6] == "--heartbeat-file"
        assert not any(
            len(a) > 2 and "--supervised".startswith(a) for a in child
        )
        assert "--from-sys" not in child


class TestErrorsGoToStderr:
    def test_snapshot_zero_fields(self, tmp_path, capsys):
        out = tmp_path / "s.rpio"
        assert main(["snapshot", str(out), "--fields", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            "error: CampaignSpec.data_fields must be >= 1, got 0"
        )
        assert not out.exists()

    def test_compress_unknown_backend(self, capsys):
        assert main(
            ["compress", "--backend", "nope", "--size", "8"]
        ) == 2
        captured = capsys.readouterr()
        assert "error:" not in captured.out
        assert captured.err.startswith(
            "error: unknown codec backend 'nope' (available: "
        )
