"""The service core end-to-end: memoization, admission, telemetry.

These tests drive :class:`SchedulingService` in-process (no HTTP), so
the acceptance guarantees are asserted directly: identical requests
return byte-identical solutions with the second served from cache and
no solver span emitted; concurrent mixed-tenant load respects quotas;
rejections are structured bodies, never tracebacks.
"""

import json
import threading

import pytest

from repro.core import get_algorithm_info, instance_json_dict
from repro.service import SchedulingService, ServiceConfig
from repro.telemetry import SpanRecord, Tracer
import numpy as np

from tests.conftest import figure1_instance, random_instance


def _spans(tracer, name):
    return [
        r
        for r in tracer.recorder.records
        if isinstance(r, SpanRecord) and r.name == name
    ]


def _count_spans(tracer, name):
    return len(_spans(tracer, name))


def solve_payload(instance=None, **extra):
    payload = {
        "instance": instance_json_dict(instance or figure1_instance())
    }
    payload.update(extra)
    return payload


@pytest.fixture
def service():
    svc = SchedulingService(ServiceConfig(workers=2))
    yield svc
    svc.shutdown()


class TestMemoization:
    def test_second_identical_request_is_byte_identical_cache_hit(self):
        tracer = Tracer()
        svc = SchedulingService(ServiceConfig(workers=2), tracer=tracer)
        try:
            payload = solve_payload()
            status1, body1 = svc.solve(payload)
            assert status1 == 200 and body1["cache"] == "miss"
            solver_spans_after_cold = _count_spans(tracer, "solve")
            assert solver_spans_after_cold == 1

            status2, body2 = svc.solve(payload)
            assert status2 == 200 and body2["cache"] == "hit"
            # Byte-identical solution, straight from the memo cache.
            assert json.dumps(body2["solution"], sort_keys=True) == (
                json.dumps(body1["solution"], sort_keys=True)
            )
            assert body2["key"] == body1["key"]
            # The hit never touched the solver: no new solve span.
            assert _count_spans(tracer, "solve") == solver_spans_after_cold
            assert svc.cache.stats()["hits"] == 1
            assert svc.status_payload()["requests"]["cache_hits"] == 1
        finally:
            svc.shutdown()

    def test_every_request_emits_service_request_span(self):
        tracer = Tracer()
        svc = SchedulingService(ServiceConfig(workers=1), tracer=tracer)
        try:
            payload = solve_payload()
            svc.solve(payload)
            svc.solve(payload)
            spans = _spans(tracer, "service.request")
            assert len(spans) == 2
            outcomes = sorted(s.attrs["cache"] for s in spans)
            assert outcomes == ["hit", "miss"]
            miss = next(s for s in spans if s.attrs["cache"] == "miss")
            assert miss.attrs["tenant"] == "default"
            assert miss.attrs["status"] == 200
            assert "queue_wait_s" in miss.attrs
            assert "solve_s" in miss.attrs
        finally:
            svc.shutdown()

    def test_cache_bypass_always_solves(self, service):
        payload = solve_payload(cache=False)
        _, body1 = service.solve(payload)
        _, body2 = service.solve(payload)
        assert body1["cache"] == "bypass"
        assert body2["cache"] == "bypass"
        assert service.cache.stats()["hits"] == 0

    def test_different_algorithms_have_different_keys(self, service):
        _, body1 = service.solve(solve_payload())
        _, body2 = service.solve(
            solve_payload(algorithm="TwoListsGreedy")
        )
        assert body1["key"] != body2["key"]

    def test_ledger_answers_a_settled_solve_after_restart(self, tmp_path):
        """The memo cache dies with its process; the ledger is the one
        store of replies that survives a restart."""
        config = ServiceConfig(
            workers=1, ledger_path=str(tmp_path / "ledger.jsonl")
        )
        first = SchedulingService(config)
        try:
            _, cold = first.solve(solve_payload())
            assert cold["cache"] == "miss"
        finally:
            first.shutdown()
        tracer = Tracer()
        second = SchedulingService(config, tracer=tracer)
        try:
            status, warm = second.solve(solve_payload())
            assert status == 200
            # The settled reply is served as it was first sent, byte
            # for byte, and nothing is solved again.
            assert warm.encoded == cold.encoded
            (span,) = _spans(tracer, "service.request")
            assert span.attrs["cache"] == "ledger"
            status_body = second.status_payload()
            assert status_body["requests"]["ledger_hits"] == 1
            assert status_body["queue"]["dispatched"] == 0
            assert len(second.cache) == 0
        finally:
            second.shutdown()


class TestAdmission:
    def test_quota_exhaustion_is_a_structured_rejection(self):
        svc = SchedulingService(
            ServiceConfig(workers=1, quota_rate=0.0, quota_burst=2.0)
        )
        try:
            payload = solve_payload(cache=False)
            assert svc.solve(payload)[0] == 200
            assert svc.solve(payload)[0] == 200
            status, body = svc.solve(payload)
            assert status == 429
            assert body["ok"] is False
            assert body["error"]["code"] == "quota_exhausted"
            assert "quota" in body["error"]["message"]
            # Never a traceback: the body is a JSON-safe dict.
            json.dumps(body)
        finally:
            svc.shutdown()

    def test_cache_hits_cost_no_tokens(self):
        svc = SchedulingService(
            ServiceConfig(workers=1, quota_rate=0.0, quota_burst=1.0)
        )
        try:
            payload = solve_payload()
            assert svc.solve(payload)[0] == 200  # spends the only token
            for _ in range(5):
                status, body = svc.solve(payload)
                assert (status, body["cache"]) == (200, "hit")
        finally:
            svc.shutdown()

    def test_concurrent_mixed_tenants_respect_quotas(self):
        """N concurrent requests from two tenants: the capped tenant is
        throttled to its burst, the others all complete."""
        svc = SchedulingService(
            ServiceConfig(
                workers=2,
                max_queue=64,
                quota_rate=0.0,
                quota_burst=50.0,
                tenant_quotas={"capped": (0.0, 3.0)},
            )
        )
        try:
            results = []
            lock = threading.Lock()

            def submit(tenant, seed):
                payload = solve_payload(
                    random_instance(np.random.default_rng(seed), num_jobs=3),
                    tenant=tenant,
                    cache=False,
                )
                status, body = svc.solve(payload, timeout=30.0)
                with lock:
                    results.append((tenant, status, body))

            threads = [
                threading.Thread(
                    target=submit,
                    args=("capped" if i % 2 else "open", i),
                )
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert len(results) == 16

            open_statuses = [s for t, s, _ in results if t == "open"]
            capped_ok = [
                b for t, s, b in results if t == "capped" and s == 200
            ]
            capped_rejected = [
                b for t, s, b in results if t == "capped" and s == 429
            ]
            # Every accepted request completed with a real solution.
            assert open_statuses == [200] * 8
            for _, status, body in results:
                if status == 200:
                    assert body["solution"]["makespan"] is not None
            # The capped tenant got exactly its burst through.
            assert len(capped_ok) == 3
            assert len(capped_rejected) == 5
            for body in capped_rejected:
                assert body["error"]["code"] == "quota_exhausted"
            stats = svc.admission.stats()["tenants"]
            assert stats["capped"]["admitted"] == 3
            assert stats["capped"]["rejected"] == 5
            assert stats["open"]["admitted"] == 8
        finally:
            svc.shutdown()

    def test_queue_full_is_a_structured_rejection(self):
        svc = SchedulingService(
            ServiceConfig(
                workers=1,
                max_queue=1,
                quota_rate=0.0,
                quota_burst=50.0,
            )
        )
        try:
            release = threading.Event()
            running = threading.Event()
            inner = svc.dispatcher._solve_fn

            def blocking(work):
                running.set()
                release.wait(10.0)
                return inner(work)

            svc.dispatcher._solve_fn = blocking
            pending = [
                svc.begin_solve(
                    solve_payload(
                        random_instance(np.random.default_rng(0), num_jobs=3), cache=False
                    )
                )
            ]
            assert running.wait(5.0)  # worker busy; queue now fills
            pending.append(
                svc.begin_solve(
                    solve_payload(
                        random_instance(np.random.default_rng(1), num_jobs=3), cache=False
                    )
                )
            )
            status, body = svc.solve(
                solve_payload(
                    random_instance(np.random.default_rng(2), num_jobs=3), cache=False
                )
            )
            assert status == 429
            assert body["error"]["code"] == "queue_full"
            release.set()
            for p in pending:
                status, _ = p.result(timeout=10.0)
                assert status == 200
        finally:
            release.set()
            svc.shutdown()

    def test_deadline_expiry_is_a_structured_rejection(self):
        svc = SchedulingService(
            ServiceConfig(workers=1, quota_rate=0.0, quota_burst=50.0)
        )
        try:
            release = threading.Event()
            running = threading.Event()
            inner = svc.dispatcher._solve_fn

            def blocking(work):
                if not running.is_set():
                    running.set()
                    release.wait(10.0)
                return inner(work)

            svc.dispatcher._solve_fn = blocking
            blocker = svc.begin_solve(
                solve_payload(
                    random_instance(np.random.default_rng(0), num_jobs=3), cache=False
                )
            )
            assert running.wait(5.0)
            doomed = svc.begin_solve(
                solve_payload(
                    random_instance(np.random.default_rng(1), num_jobs=3),
                    cache=False,
                    deadline_s=0.05,
                )
            )
            import time

            time.sleep(0.15)
            release.set()
            status, body = doomed.result(timeout=10.0)
            assert status == 504
            assert body["error"]["code"] == "deadline_exceeded"
            assert blocker.result(timeout=10.0)[0] == 200
        finally:
            release.set()
            svc.shutdown()


class TestValidation:
    def test_bad_instance_is_a_400(self, service):
        status, body = service.solve({"instance": {"bogus": True}})
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "instance" in body["error"]["message"]

    def test_missing_instance_is_a_400(self, service):
        status, body = service.solve({})
        assert status == 400
        assert "instance" in body["error"]["message"]

    def test_unknown_algorithm_is_a_400(self, service):
        status, body = service.solve(solve_payload(algorithm="nope"))
        assert status == 400
        assert "algorithm" in body["error"]["message"]

    def test_negative_deadline_is_a_400(self, service):
        status, body = service.solve(solve_payload(deadline_s=-1.0))
        assert status == 400
        assert "deadline_s" in body["error"]["message"]

    def test_bad_config_is_rejected_on_construction(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=0)
        with pytest.raises(ValueError, match="quota_burst"):
            ServiceConfig(quota_burst=0.0)


class TestCampaign:
    def test_campaign_request_runs_and_summarizes(self, service):
        status, body = service.campaign(
            {"app": "nyx", "nodes": 2, "ppn": 2, "iterations": 3}
        )
        assert status == 200
        campaign = body["campaign"]
        assert campaign["iterations"] == 3
        assert campaign["solution"] == "ours"
        assert campaign["mean_relative_overhead"] >= 0.0
        assert campaign["spec_crc32c"]

    def test_campaign_matches_direct_run(self, service):
        """The service adds transport, not semantics: same spec, same
        modelled result as a direct run_campaign call."""
        from repro.engines import CampaignSpec, run_campaign

        status, body = service.campaign(
            {"app": "nyx", "nodes": 2, "ppn": 2, "iterations": 3, "seed": 5}
        )
        assert status == 200
        direct = run_campaign(
            CampaignSpec(app="nyx", nodes=2, ppn=2, iterations=3, seed=5)
        )
        direct.close()
        assert body["campaign"]["mean_relative_overhead"] == (
            pytest.approx(direct.result.mean_relative_overhead)
        )
        assert body["campaign"]["total_time"] == pytest.approx(
            direct.result.total_time
        )

    def test_campaign_journal_is_written_and_verifies(
        self, service, tmp_path
    ):
        from repro.durability import verify_journal

        journal = tmp_path / "svc.jsonl"
        status, body = service.campaign(
            {
                "app": "nyx",
                "nodes": 2,
                "ppn": 2,
                "iterations": 3,
                "journal": str(journal),
            }
        )
        assert status == 200
        assert journal.exists()
        report = verify_journal(journal)
        assert report.ok

    def test_campaign_rejection_span_names_its_endpoint(self):
        tracer = Tracer()
        svc = SchedulingService(
            # One campaign costs more than the whole bucket holds.
            ServiceConfig(quota_rate=0.0, quota_burst=2.0, campaign_cost=4.0),
            tracer=tracer,
        )
        try:
            status, body = svc.campaign({"app": "nyx", "iterations": 1})
            assert (status, body["error"]["code"]) == (429, "quota_exhausted")
            (span,) = _spans(tracer, "service.request")
            assert span.attrs["endpoint"] == "campaign"
            assert span.attrs["rejection"] == "quota_exhausted"
            assert svc.status_payload()["requests"]["rejected"] == 1
        finally:
            svc.shutdown()

    def test_unknown_campaign_field_is_a_400(self, service):
        status, body = service.campaign({"bogus": 1})
        assert status == 400
        assert "bogus" in body["error"]["message"]

    def test_bad_spec_value_is_a_400(self, service):
        status, body = service.campaign({"app": "doom3"})
        assert status == 400
        assert "app" in body["error"]["message"]


class TestNoRequestLeftUnanswered:
    """An exception anywhere after parsing still answers the request."""

    def test_failing_memo_store_is_a_500_not_a_hang(self, service):
        def broken_put(key, solution):
            raise RuntimeError("memo tier exploded")

        service.cache.put = broken_put
        pending = service.begin_solve(solve_payload())
        status, body = pending.result(timeout=30.0)
        assert status == 500
        assert body["error"] == {
            "code": "internal_error",
            "message": "RuntimeError: memo tier exploded",
        }
        assert body["tenant"] == "default"
        counts = service.status_payload()
        assert counts["inflight"] == 0
        assert counts["requests"]["errors"] == 1

    def test_failing_campaign_summary_is_a_500_not_a_hang(self, service):
        def broken_summary(report, journal_path):
            raise KeyError("wall_time_s")

        service._campaign_summary = broken_summary
        pending = service.begin_campaign(
            {"app": "nyx", "nodes": 2, "ppn": 2, "iterations": 2}
        )
        status, body = pending.result(timeout=60.0)
        assert status == 500
        assert body["error"]["code"] == "internal_error"
        assert "KeyError" in body["error"]["message"]
        assert service.status_payload()["inflight"] == 0


class TestShutdown:
    def test_draining_service_rejects_with_503(self):
        svc = SchedulingService(ServiceConfig(workers=1))
        svc.shutdown()
        status, body = svc.solve(solve_payload())
        assert status == 503
        assert body["error"]["code"] == "shutting_down"
        status, body = svc.campaign({"iterations": 1})
        assert status == 503

    def test_health_reports_draining(self):
        svc = SchedulingService(ServiceConfig(workers=1))
        assert svc.health_payload() == {"ok": True, "draining": False}
        svc.shutdown()
        assert svc.health_payload() == {"ok": True, "draining": True}

    def test_status_payload_is_json_safe(self, service):
        service.solve(solve_payload())
        json.dumps(service.status_payload())


class TestFailuresArePerRequest:
    """A request that fails is answered 500 or 400 by itself; no failure
    makes the service refuse any other request."""

    def make_service(self, **overrides):
        kwargs = dict(workers=2, quota_rate=0.0, quota_burst=100.0)
        kwargs.update(overrides)
        return SchedulingService(ServiceConfig(**kwargs))

    def test_failed_campaigns_do_not_refuse_a_later_solve(self, tmp_path):
        svc = self.make_service()
        journal = tmp_path / "missing" / "journal.wal"
        try:
            for seed in range(4):
                status, body = svc.campaign(
                    {
                        "nodes": 1,
                        "ppn": 2,
                        "iterations": 1,
                        "seed": seed,
                        "journal": str(journal),
                    }
                )
                assert status == 500, body
                assert body["error"]["code"] == "campaign_failed"
            status, body = svc.solve(solve_payload(figure1_instance()))
            assert status == 200, body
            assert svc.health_payload() == {"ok": True, "draining": False}
        finally:
            svc.shutdown()

    def test_raising_solver_answers_each_request_with_500(
        self, monkeypatch
    ):
        import repro.service.service as service_module

        svc = self.make_service()

        def failing(*args, **kwargs):
            raise RuntimeError("engine exploded")

        try:
            monkeypatch.setattr(service_module, "solve", failing)
            for seed in range(8):
                status, body = svc.solve(
                    solve_payload(
                        random_instance(np.random.default_rng(10 + seed))
                    )
                )
                assert status == 500, body
                assert body["error"] == {
                    "code": "internal_error",
                    "message": "RuntimeError: engine exploded",
                }
            assert svc.status_payload()["requests"]["errors"] == 8
            monkeypatch.undo()
            status, body = svc.solve(solve_payload(figure1_instance()))
            assert status == 200, body
        finally:
            svc.shutdown()

    def test_malformed_campaigns_are_400s(self):
        """A campaign the spec or fault parser refuses is the client's
        error (400), never a 500 campaign_failed."""
        svc = self.make_service()
        try:
            bad = [{"engine": "bogus"}] * 4 + [
                {"faults": {"stall": {"probability": 7}}},
                {"faults": {"bogus": {}}},
                {"faults": {"stall": {"probability": 7}}},
                {"faults": {"bogus": {}}},
            ]
            for extra in bad:
                status, body = svc.campaign(
                    {"nodes": 1, "ppn": 2, "iterations": 1, **extra}
                )
                assert status == 400, body
                assert body["error"]["code"] == "bad_request"
            status, body = svc.solve(solve_payload(figure1_instance()))
            assert status == 200
        finally:
            svc.shutdown()

    def test_oversized_exhaustive_requests_are_400s(self, tmp_path):
        """An ``Exhaustive`` request above its job limit is the caller's
        error (400), and leaves no ledger entry open for replay."""
        svc = self.make_service(ledger_path=str(tmp_path / "ledger.jsonl"))
        limit = get_algorithm_info("Exhaustive").max_jobs
        try:
            for seed in range(4):
                instance = random_instance(
                    np.random.default_rng(20 + seed), num_jobs=limit + 1
                )
                status, body = svc.solve(
                    solve_payload(instance, algorithm="Exhaustive")
                )
                assert status == 400, body
                assert body["error"]["code"] == "bad_request"
                assert f"limited to {limit} jobs" in body["error"]["message"]
            instance = random_instance(
                np.random.default_rng(30), num_jobs=limit + 1
            )
            status, body = svc.solve(
                solve_payload(instance, algorithm="ExtJohnson")
            )
            assert status == 200, body
            assert svc.ledger.incomplete() == []
        finally:
            svc.shutdown()
