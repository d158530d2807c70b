"""The ``repro bench`` CLI: run/list end to end."""

from __future__ import annotations

import pytest

from repro.bench import load_document
from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--version"])
        assert info.value.code == 0
        assert "repro 1.0.0" in capsys.readouterr().out

    def test_bench_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["bench", "run"])
        assert not args.quick
        assert args.out is None
        assert args.trace_out is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "compare", "cur.json", "--baseline", "base.json"],
            ["bench", "run", "--jobs", "2"],
            ["bench", "run", "--baseline", "x"],
            ["bench", "run", "--threshold", "5.0"],
        ],
        ids=["compare", "jobs", "baseline", "threshold"],
    )
    def test_retired_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        capsys.readouterr()


class TestList:
    def test_lists_registered_figure_cases(self, capsys):
        assert main(["bench", "list", "--filter", "figures/"]) == 0
        out = capsys.readouterr().out
        assert "fig5.buffer_plan" in out
        assert "fig4.blocksize_campaign" in out
        assert "fig11.weak_scaling" in out

    def test_no_match_exits_1(self, capsys):
        assert main(["bench", "list", "--filter", "zzz-no-such"]) == 1
        assert "no bench cases matched" in capsys.readouterr().err


class TestRun:
    def test_quick_run_writes_valid_document(self, tmp_path, capsys):
        out = tmp_path / "BENCH_quick.json"
        assert (
            main(
                [
                    "bench",
                    "run",
                    "--quick",
                    "--filter",
                    "fig5.buffer_plan",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "fig5.buffer_plan" in text
        doc = load_document(out)  # validates against the schema
        assert doc["quick"] is True
        assert [c["name"] for c in doc["cases"]] == ["fig5.buffer_plan"]
        assert doc["cases"][0]["status"] == "ok"
        assert len(doc["cases"][0]["samples_s"]) == 3
