"""Fault-spec parsing: typed construction and field-naming errors."""

import pathlib

import pytest

from repro.resilience import (
    DEFAULT_RETRY_POLICY,
    load_fault_spec,
    parse_fault_spec,
)

_EXAMPLE = (
    pathlib.Path(__file__).parent.parent.parent
    / "examples"
    / "fault_specs"
    / "smoke.yaml"
)


class TestParse:
    def test_full_spec(self):
        spec = parse_fault_spec(
            {
                "seed": 7,
                "stall": {"probability": 0.1, "mean_duration_s": 0.4},
                "write_error": {"probability": 0.2},
                "bandwidth": {"probability": 0.15, "min_factor": 0.1},
                "compression": {"probability": 0.05},
                "straggler": {"ranks": [0, 2], "io_factor": 3.0},
                "retry": {"max_attempts": 5, "deadline_s": 2.0},
            }
        )
        assert spec.seed == 7
        assert spec.plan.stall.probability == 0.1
        assert spec.plan.straggler.ranks == (0, 2)
        assert spec.retry.max_attempts == 5
        assert spec.plan.any_faults

    def test_empty_spec_is_neutral(self):
        spec = parse_fault_spec({})
        assert not spec.plan.any_faults
        assert spec.retry == DEFAULT_RETRY_POLICY
        assert spec.seed is None

    @pytest.mark.parametrize(
        "data,fragment",
        [
            ([1, 2], "top level must be a mapping"),
            ({"bogus": {}}, "unknown fault kind 'bogus'"),
            ({"stall": 3}, "stall must be a mapping"),
            ({"stall": {"probabilty": 0.1}},
             "unknown field stall.'probabilty'"),
            ({"stall": {"probability": 2.0}},
             r"stall\.probability must be in \[0, 1\]"),
            ({"straggler": {"ranks": "all"}},
             "straggler.ranks must be a list of ints"),
            ({"straggler": {"ranks": [0, True]}},
             "straggler.ranks must be a list of ints"),
            ({"retry": {"max_attempts": 0}},
             r"RetryPolicy\.max_attempts"),
            ({"retry": {"nope": 1}}, "unknown field retry.'nope'"),
            ({"seed": "seven"}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
        ],
    )
    def test_bad_spec_names_field(self, data, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_fault_spec(data)


class TestLoad:
    def test_example_spec_loads(self):
        spec = load_fault_spec(_EXAMPLE)
        assert spec.plan.any_faults
        assert spec.plan.straggler.ranks == (0,)
        assert spec.retry.deadline_s == 5.0

    def test_json_spec_loads(self, tmp_path):
        # JSON is a YAML subset: works even without PyYAML.
        path = tmp_path / "spec.json"
        path.write_text('{"write_error": {"probability": 0.5}}')
        spec = load_fault_spec(path)
        assert spec.plan.write_error.probability == 0.5

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_fault_spec(path)

    def test_error_carries_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("stall: {probability: 2.0}\n")
        with pytest.raises(ValueError, match="bad.yaml"):
            load_fault_spec(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_fault_spec(tmp_path / "nope.yaml")


class TestWorkerSection:
    def test_worker_section_parses(self):
        spec = parse_fault_spec(
            {
                "worker": {
                    "kind": "stall",
                    "rank": 1,
                    "iteration": 2,
                    "attempts": 3,
                    "stall_s": 1.5,
                }
            }
        )
        worker = spec.plan.worker
        assert worker.kind == "stall"
        assert worker.rank == 1
        assert worker.iteration == 2
        assert worker.attempts == 3
        assert worker.stall_s == 1.5
        assert not spec.plan.any_faults  # nothing modelled

    def test_worker_defaults(self):
        worker = parse_fault_spec({"worker": {}}).plan.worker
        assert worker.kind == "kill"
        assert worker.rank == -1 and worker.iteration == -1

    @pytest.mark.parametrize(
        "data,fragment",
        [
            ({"worker": {"kind": 3}}, "worker.kind must be a string"),
            ({"worker": {"kind": "explode"}},
             "worker.kind must be one of"),
            ({"worker": {"rank": "one"}},
             "worker.rank must be an integer"),
            ({"worker": {"rank": True}},
             "worker.rank must be an integer"),
            ({"worker": {"attempts": 1.5}},
             "worker.attempts must be an integer"),
            ({"worker": {"stall_s": "long"}},
             "worker.stall_s must be a number"),
            ({"worker": {"bogus": 1}}, "unknown field worker.'bogus'"),
        ],
    )
    def test_bad_worker_field_named(self, data, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_fault_spec(data)

    def test_example_worker_specs_load(self):
        base = _EXAMPLE.parent
        kill = load_fault_spec(base / "worker_kill.yaml")
        assert kill.plan.worker.kind == "kill"
        assert kill.seed == 7
        stall = load_fault_spec(base / "worker_stall.yaml")
        assert stall.plan.worker.kind == "stall"
        assert stall.plan.worker.stall_s == 5.0
