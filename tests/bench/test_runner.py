"""Runner: failure isolation, timeouts, one case at a time, telemetry."""

from __future__ import annotations

import inspect
import os
import time

from repro.bench import REGISTRY, BenchRegistry, bench_case, run_benchmarks
from repro.telemetry import Tracer

from . import sample_cases  # noqa: F401 — registers the sample.* cases


def _cases(*names: str):
    return [REGISTRY.get(name) for name in names]


class TestSerial:
    def test_all_ok(self):
        report = run_benchmarks(_cases("sample.ok", "sample.ok2"))
        assert report.ok
        assert [r.status for r in report.results] == ["ok", "ok"]
        assert all(r.stats is not None for r in report.results)
        assert report.environment["cpu_count"] >= 1

    def test_crashing_case_is_isolated(self):
        report = run_benchmarks(
            _cases("sample.crash", "sample.ok")
        )
        crash, ok = report.results
        assert crash.status == "failed"
        assert "boom" in crash.error
        assert crash.stats is None
        assert ok.status == "ok"
        assert not report.ok
        assert report.failed == (crash,)

    def test_timeout_is_enforced_and_isolated(self):
        t0 = time.perf_counter()
        report = run_benchmarks(_cases("sample.sleepy", "sample.ok"))
        elapsed = time.perf_counter() - t0
        sleepy, ok = report.results
        assert sleepy.status == "timeout"
        assert "wall budget" in sleepy.error
        assert ok.status == "ok"
        assert elapsed < 10.0  # nowhere near the 30s sleep

    def test_results_preserve_case_order(self):
        report = run_benchmarks(
            _cases("sample.ok2", "sample.ok", "sample.crash")
        )
        assert [r.name for r in report.results] == [
            "sample.ok2",
            "sample.ok",
            "sample.crash",
        ]


class TestOneAtATime:
    def test_signature_has_no_jobs(self):
        assert "jobs" not in inspect.signature(run_benchmarks).parameters

    def test_cases_never_overlap(self, tmp_path):
        """Each case finds the shared "a case is running" flag clear on
        entry (a file, so it would hold across processes too)."""
        flag = tmp_path / "running"
        registry = BenchRegistry()

        def body():
            fd = os.open(flag, os.O_CREAT | os.O_EXCL)  # raises if set
            os.close(fd)
            time.sleep(0.02)
            flag.unlink()

        for name in ("overlap.a", "overlap.b"):
            bench_case(name, warmup=1, repeats=3, registry=registry)(body)
        report = run_benchmarks(registry.select())
        assert [r.status for r in report.results] == ["ok", "ok"], [
            r.error for r in report.results
        ]


class TestTelemetry:
    def test_bench_case_spans_and_counters(self):
        tracer = Tracer()
        run_benchmarks(
            _cases("sample.ok", "sample.crash"), tracer=tracer
        )
        spans = [
            s for s in tracer.recorder.spans if s.name == "bench.case"
        ]
        assert len(spans) == 2
        statuses = {s.attrs["case"]: s.attrs["status"] for s in spans}
        assert statuses == {
            "sample.ok": "ok",
            "sample.crash": "failed",
        }
        ok_span = next(
            s for s in spans if s.attrs["case"] == "sample.ok"
        )
        assert ok_span.attrs["median_s"] > 0
        assert tracer.counter("bench.ok").value == 1
        assert tracer.counter("bench.failed").value == 1
