"""Schema: serialization, validation of tampered/truncated documents,
atomic publication."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BenchCase,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SchemaError,
    load_document,
    report_to_document,
    run_case,
    validate_document,
    write_document,
)
from repro.bench.runner import BenchReport
from repro.bench.schema import result_to_dict
from tests.conftest import fail_fsync


def _fake_clock(count: int):
    it = iter(range(2 * count + 2))
    return lambda: float(next(it))


def _report() -> BenchReport:
    results = tuple(
        run_case(
            BenchCase(name=f"case.{i}", func=lambda: None, group="g",
                      warmup=0, repeats=4),
            clock=_fake_clock(8),
        )
        for i in range(2)
    )
    return BenchReport(
        results=results,
        environment={
            "python": "3.11.0",
            "platform": "test",
            "cpu_count": 4,
            "git_sha": "unknown",
            "repro_version": "1.0.0",
        },
        quick=True,
        elapsed_s=1.0,
    )


class TestRoundTrip:
    def test_document_validates_and_survives_disk(self, tmp_path):
        doc = report_to_document(_report(), name="quick")
        validate_document(doc)
        path = tmp_path / "BENCH_quick.json"
        write_document(doc, path)
        loaded = load_document(path)
        assert loaded == json.loads(json.dumps(doc))  # exact JSON identity
        assert loaded["schema"] == SCHEMA_NAME
        assert loaded["version"] == SCHEMA_VERSION
        assert loaded["quick"] is True
        assert [c["name"] for c in loaded["cases"]] == ["case.0", "case.1"]

    def test_failed_result_serializes_without_stats(self):
        from repro.bench import BenchResult

        failed = BenchResult(
            name="f", group="g", status="failed", warmup=0, repeats=1,
            error="Traceback: boom",
        )
        case = result_to_dict(failed)
        assert case["stats"] is None and case["samples_s"] == []
        assert case["error"] == "Traceback: boom"
        doc = report_to_document(_report(), name="quick")
        doc["cases"].append(case)
        validate_document(doc)


class TestAtomicPublish:
    """A report that cannot be published leaves the previous one intact."""

    def _published(self, tmp_path):
        path = tmp_path / "BENCH_quick.json"
        write_document(report_to_document(_report(), name="quick"), path)
        return path, path.read_bytes()

    def test_invalid_document_leaves_previous_file(self, tmp_path):
        path, before = self._published(tmp_path)
        bad = report_to_document(_report(), name="quick")
        bad["cases"][0]["status"] = "exploded"
        with pytest.raises(SchemaError):
            write_document(bad, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_failed_write_leaves_previous_file_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        path, before = self._published(tmp_path)
        fail_fsync(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            write_document(report_to_document(_report(), name="other"), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


class TestValidation:
    def _doc(self) -> dict:
        return report_to_document(_report(), name="quick")

    def _problems(self, doc) -> str:
        with pytest.raises(SchemaError) as info:
            validate_document(doc)
        return "; ".join(info.value.problems)

    def test_wrong_schema_and_version(self):
        doc = self._doc()
        doc["schema"] = "other"
        doc["version"] = 99
        problems = self._problems(doc)
        assert "schema" in problems and "version" in problems

    def test_missing_environment_key(self):
        doc = self._doc()
        del doc["environment"]["git_sha"]
        assert "environment.git_sha" in self._problems(doc)

    def test_bad_status_and_samples(self):
        doc = self._doc()
        doc["cases"][0]["status"] = "exploded"
        doc["cases"][1]["samples_s"] = [1.0, "fast"]
        problems = self._problems(doc)
        assert "status" in problems and "samples_s" in problems

    def test_ok_case_requires_stats(self):
        doc = self._doc()
        doc["cases"][0]["stats"] = None
        assert "stats is required" in self._problems(doc)

    def test_failed_case_requires_error(self):
        doc = self._doc()
        doc["cases"][0]["status"] = "failed"
        doc["cases"][0]["error"] = None
        assert "error is required" in self._problems(doc)

    def test_duplicate_case_names(self):
        doc = self._doc()
        doc["cases"][1]["name"] = doc["cases"][0]["name"]
        assert "duplicated" in self._problems(doc)

    def test_non_object_document(self):
        with pytest.raises(SchemaError):
            validate_document([1, 2, 3])

    def test_truncated_json_on_disk(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "repro.bench", "vers')
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_document(path)

    def test_every_problem_reported_at_once(self):
        doc = self._doc()
        doc["schema"] = "other"
        doc["quick"] = "yes"
        del doc["environment"]["python"]
        with pytest.raises(SchemaError) as info:
            validate_document(doc)
        assert len(info.value.problems) == 3
