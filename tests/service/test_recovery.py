"""The request ledger, crash replay, and chaos hooks — all in-process.

The subprocess SIGKILL proofs live in ``test_chaos.py``; here every
ledger and recovery behaviour is exercised deterministically: the
write-ahead wire format, torn-tail repair, duplicate coalescing,
exactly-once replay through the memo cache, and campaign resume.
"""

import json
import os
import threading
from concurrent.futures import Future

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import instance_json_dict
from repro.durability import JournalError, read_journal, verify_ledger, verify_path
from repro.service import (
    LedgerEntry,
    RequestLedger,
    SchedulingService,
    ServiceConfig,
)
from repro.durability.journal import encode_record
from repro.service.recovery import LEDGER_VERSION, crash_injector_from_env
from tests.conftest import fail_fsync, figure1_instance, random_instance


def solve_payload(instance=None, **extra):
    payload = {
        "instance": instance_json_dict(instance or figure1_instance())
    }
    payload.update(extra)
    return payload


class TestRequestLedger:
    def test_open_close_roundtrip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            assert ledger.record_open("k1", "solve", {"a": 1})
            assert ledger.is_open("k1")
            assert ledger.incomplete() == [
                LedgerEntry(key="k1", kind="solve", payload={"a": 1})
            ]
            assert ledger.record_close("k1", 200, {"ok": True})
            assert not ledger.is_open("k1")
            assert ledger.incomplete() == []
            assert ledger.closed_body("k1") == (200, {"ok": True})

    def test_settled_bodies_are_kept_encoded(self, tmp_path):
        """A settled body is kept in its reply encoding; a ledger hit
        decodes a fresh dict, keys in reply order, carrying those
        bytes."""
        body = {"z": 1, "a": [1.5, None], "m": {"y": True, "b": "é"}}
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            ledger.record_open("k", "solve", {})
            ledger.record_close("k", 200, body)
            assert ledger._closed["k"][1] == json.dumps(body).encode()
            status, replayed = ledger.closed_body("k")
            assert (status, replayed) == (200, body)
            assert replayed.encoded == json.dumps(body).encode()
            assert ledger.closed_body("k")[1] is not replayed
        with RequestLedger(path) as reopened:
            # The record is canonical JSON, so after a restart the keys
            # come back sorted; the bytes still match the dict.
            replayed = reopened.closed_body("k")[1]
            assert replayed == body
            assert replayed.encoded == json.dumps(replayed).encode()

    def test_reopen_restores_state(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            ledger.record_open("done", "solve", {"x": 1})
            ledger.record_close("done", 200, {"ok": True})
            ledger.record_open("pending", "campaign", {"app": "nyx"})
        with RequestLedger(path) as reopened:
            assert reopened.closed_body("done") == (200, {"ok": True})
            assert [e.key for e in reopened.incomplete()] == ["pending"]
            assert reopened.incomplete()[0].kind == "campaign"

    def test_replay_preserves_admission_order(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            for i in range(5):
                ledger.record_open(f"k{i}", "solve", {})
            ledger.record_close("k2", 200, {})
        with RequestLedger(path) as reopened:
            assert [e.key for e in reopened.incomplete()] == [
                "k0",
                "k1",
                "k3",
                "k4",
            ]

    def test_duplicate_open_and_close_refused(self, tmp_path):
        with RequestLedger(tmp_path / "ledger.jsonl") as ledger:
            assert ledger.record_open("k1", "solve", {})
            assert not ledger.record_open("k1", "solve", {})
            assert ledger.record_close("k1", 200, {})
            assert not ledger.record_close("k1", 200, {})
            # Settled keys get no record of any kind again.
            assert not ledger.record_open("k1", "solve", {})
            assert ledger.record_solved("k1", {"again": True}) is None
            assert ledger.stats()["records"] == 3
            # A solve's 200 needs no open record, and is final too.
            assert ledger.record_solved("k2", {"ok": True}) == {"ok": True}
            assert ledger.record_solved("k2", {"ok": True}) is None
            assert not ledger.record_open("k2", "solve", {})
            assert not ledger.record_close("k2", 200, {})
            assert ledger.stats()["records"] == 4

    def test_close_without_open_refused(self, tmp_path):
        with RequestLedger(tmp_path / "ledger.jsonl") as ledger:
            assert not ledger.record_close("ghost", 200, {})

    def test_writes_refused_after_close(self, tmp_path):
        ledger = RequestLedger(tmp_path / "ledger.jsonl")
        ledger.close()
        assert not ledger.record_open("k1", "solve", {})

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            ledger.record_open("k1", "solve", {})
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"seq": 2, "type": "close"')  # torn
        with RequestLedger(path) as recovered:
            assert recovered.stats()["recovered_torn_tail"] is True
            assert [e.key for e in recovered.incomplete()] == ["k1"]
            # The tail was cut, so new appends stay record-aligned.
            recovered.record_close("k1", 200, {"ok": True})
        records, _, torn = read_journal(path)
        assert not torn
        assert [r["type"] for r in records] == ["begin", "open", "close"]

    def test_corrupt_interior_record_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            ledger.record_open("k1", "solve", {})
            ledger.record_close("k1", 200, {})
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"open"', b'"OPEN"')  # break the CRC
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError):
            RequestLedger(path)

    def test_wrong_file_kind_rejected(self, tmp_path):
        path = tmp_path / "not-a-ledger.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="no intact records"):
            RequestLedger(path)

    def test_failed_append_leaves_no_trace(self, tmp_path, monkeypatch):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            ledger.record_open("k1", "solve", {})
            size = path.stat().st_size
            fail_fsync(monkeypatch)
            with pytest.raises(OSError, match="No space left"):
                ledger.record_close("k1", 200, {"ok": True})
            # Neither the file, the sequence nor the state moved on.
            assert path.stat().st_size == size
            assert ledger.stats()["records"] == 2
            assert ledger.is_open("k1")
            assert ledger.record_close("k1", 200, {"ok": True})
        with RequestLedger(path) as reopened:
            assert reopened.closed_body("k1") == (200, {"ok": True})
            assert reopened.stats()["recovered_torn_tail"] is False
        assert verify_ledger(path).format().count("issue:") == 0

    def test_only_a_200_settles_a_key_for_good(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            assert ledger.record_open("k1", "solve", {"try": 1})
            assert ledger.record_close("k1", 429, {"ok": False})
            assert ledger.closed_body("k1") == (429, {"ok": False})
            # Answered, so not replayed — but a retry opens it afresh.
            assert ledger.incomplete() == []
            assert ledger.record_open("k1", "solve", {"try": 2})
            assert ledger.closed_body("k1") is None
            assert [e.payload for e in ledger.incomplete()] == [{"try": 2}]
            assert ledger.record_close("k1", 200, {"ok": True})
            assert not ledger.record_open("k1", "solve", {"try": 3})
        with RequestLedger(path) as reopened:
            assert reopened.closed_body("k1") == (200, {"ok": True})
            assert reopened.incomplete() == []
        report = verify_ledger(path)
        assert report.ok, report.format()
        assert any("1 request(s), 1 completed" in n for n in report.notes)

    def test_reopened_key_replays_after_a_crash(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            ledger.record_open("other", "solve", {})
            ledger.record_open("k1", "solve", {"try": 1})
            ledger.record_close("k1", 429, {"ok": False})
            ledger.record_open("k1", "solve", {"try": 2})
        with RequestLedger(path) as reopened:
            assert [(e.key, e.payload) for e in reopened.incomplete()] == [
                ("other", {}),
                ("k1", {"try": 2}),
            ]

    def test_stats_shape(self, tmp_path):
        with RequestLedger(tmp_path / "ledger.jsonl") as ledger:
            ledger.record_open("k1", "solve", {})
            stats = ledger.stats()
        assert stats["open"] == 1
        assert stats["closed"] == 0
        assert stats["records"] == 2  # begin + open
        assert stats["recovered_torn_tail"] is False


_KEYS = ["k0", "k1", "k2", "k3"]
_LEDGER_OPS = st.lists(
    st.tuples(
        st.sampled_from(_KEYS),
        st.sampled_from(["open", "solved", 200, 429, 500]),
    ),
    max_size=40,
)


class TestLedgerProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=_LEDGER_OPS, cut=st.floats(min_value=0.0, max_value=1.0))
    @example(
        ops=[
            ("k0", "open"),
            ("k1", "open"),
            ("k0", 429),
            ("k0", "open"),
            ("k0", 200),
            ("k0", "open"),
            ("k1", 500),
        ],
        cut=0.7,
    )
    @example(
        ops=[
            ("k0", "solved"),
            ("k1", "open"),
            ("k1", "solved"),
            ("k0", "open"),
            ("k2", "open"),
            ("k2", 429),
            ("k2", "solved"),
            ("k3", "solved"),
        ],
        cut=0.5,
    )
    def test_truncated_ledger_reloads_to_its_intact_prefix(self, ops, cut):
        """Any interleaving of opens, closes, re-opens and a solve's
        open-less 200 close, cut at any byte, reloads to the state of
        its longest intact record prefix and scrubs without an
        issue."""
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ledger.jsonl")
            # The model: open keys in admission order, last closes.
            opened: list[str] = []
            closed: dict[str, int] = {}
            with RequestLedger(path, fsync=False) as ledger:
                # (file size, model) after every record that landed.
                history = [(os.path.getsize(path), ([], {}))]
                for step, (key, what) in enumerate(ops):
                    if what == "open":
                        legal = key not in opened and closed.get(key) != 200
                        assert ledger.record_open(key, "solve", {"n": step}) == legal
                        if legal:
                            closed.pop(key, None)
                            opened.append(key)
                    elif what == "solved":
                        legal = closed.get(key) != 200
                        recorded = ledger.record_solved(key, {"n": step})
                        assert (recorded is not None) == legal
                        if legal:
                            if key in opened:
                                opened.remove(key)
                            closed[key] = 200
                    else:
                        legal = key in opened
                        assert ledger.record_close(key, what, {"n": step}) == legal
                        if legal:
                            opened.remove(key)
                            closed[key] = what
                    history.append(
                        (os.path.getsize(path), (list(opened), dict(closed)))
                    )
                assert [e.key for e in ledger.incomplete()] == opened
            begin_size, full_size = history[0][0], history[-1][0]
            size = begin_size + int(cut * (full_size - begin_size))
            with open(path, "r+b") as fh:
                fh.truncate(size)
            want_open, want_closed = [
                model for landed, model in history if landed <= size
            ][-1]

            report = verify_ledger(path)
            assert report.ok, report.format()
            with RequestLedger(path, fsync=False) as reloaded:
                assert [e.key for e in reloaded.incomplete()] == want_open
                for key in _KEYS:
                    recorded = reloaded.closed_body(key)
                    assert (recorded and recorded[0]) == want_closed.get(key)
                torn = size not in [landed for landed, _ in history]
                assert reloaded.stats()["recovered_torn_tail"] is torn


class TestVerifyLedger:
    def test_clean_ledger_scrubs_clean(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            ledger.record_open("k1", "solve", {})
            ledger.record_close("k1", 200, {"ok": True})
            ledger.record_open("k2", "campaign", {})
        report = verify_ledger(path)
        assert report.ok
        assert report.kind == "ledger"
        assert any("1 pending replay" in note for note in report.notes)

    def test_verify_path_sniffs_ledger_kind(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path):
            pass
        report = verify_path(path)  # kind="auto"
        assert report.kind == "ledger"
        assert report.ok

    @pytest.mark.parametrize(
        "tail, complaint",
        [
            ([("open", "k1", None)], "opened while open"),
            ([("close", "k2", 200)], "that is not open"),
            (
                [("close", "k1", 429), ("close", "k1", 200)],
                "that is not open",
            ),
            (
                [("close", "k1", 200), ("open", "k1", None)],
                "already settled 200",
            ),
            (
                [("close", "k1", 200), ("close", "k1", 200)],
                "already settled 200",
            ),
            ([("checkpoint", "k1", None)], "unexpected record type"),
            ([("open", None, None)], "without a key"),
            # Only a solve's 200 close needs no open.
            ([("close", "k2", 200, "campaign")], "that is not open"),
            ([("close", "k2", 429, "solve")], "that is not open"),
            (
                [("close", "k2", 200, "solve"), ("close", "k2", 200, "solve")],
                "already settled 200",
            ),
            (
                [("close", "k2", 200, "solve"), ("open", "k2", None)],
                "already settled 200",
            ),
            (
                [("close", "k1", 200, "solve"), ("close", "k1", 429)],
                "already settled 200",
            ),
        ],
    )
    def test_protocol_violations_fail_load_and_scrub_alike(
        self, tmp_path, tail, complaint
    ):
        path = tmp_path / "ledger.jsonl"
        records = [("open", "k1", None)] + tail
        with open(path, "wb") as fh:
            fh.write(
                encode_record(0, "begin", {"ledger_version": LEDGER_VERSION})
            )
            for seq, (kind, key, status, *close_kind) in enumerate(
                records, start=1
            ):
                data = {"key": key}
                if status is not None:
                    data.update(status=status, body={})
                if close_kind:
                    data["kind"] = close_kind[0]
                fh.write(encode_record(seq, kind, data))
        report = verify_ledger(path)
        assert [i for i in report.issues if complaint in i], report.format()
        with pytest.raises(JournalError, match=complaint):
            RequestLedger(path)

    def test_double_open_is_an_issue(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with open(path, "wb") as fh:
            fh.write(
                encode_record(0, "begin", {"ledger_version": LEDGER_VERSION})
            )
            fh.write(encode_record(1, "open", {"key": "k1", "kind": "solve"}))
            fh.write(encode_record(2, "open", {"key": "k1", "kind": "solve"}))
        report = verify_ledger(path)
        assert not report.ok

    def test_corrupt_line_is_an_issue(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with RequestLedger(path) as ledger:
            ledger.record_open("k1", "solve", {})
            ledger.record_close("k1", 200, {})
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"open"', b'"OPEN"')
        path.write_bytes(b"".join(lines))
        assert not verify_ledger(path).ok


class TestServiceChaos:
    """``REPRO_SERVICE_CRASH`` arms the one fault injector."""

    @staticmethod
    def armed(environ):
        injector = crash_injector_from_env(environ=environ)
        crashes = []
        injector.on_crash = lambda point, n: crashes.append((point, n))
        return injector, crashes

    def test_unarmed_by_default(self):
        injector, crashes = self.armed({})
        assert injector.plan.process_kill is None
        assert not injector.crash_point("mid-dispatch")  # never crashes
        assert crashes == [] and injector.log.injected == {}

    def test_env_parsing(self):
        injector, crashes = self.armed(
            {"REPRO_SERVICE_CRASH": "pre-completion:3"}
        )
        kill = injector.plan.process_kill
        assert (kill.point, kill.iteration) == ("pre-completion", 3)
        fired = [injector.crash_point("pre-completion") for _ in range(5)]
        injector.crash_point("mid-dispatch")  # another point: not counted
        assert fired == [False, False, True, False, False]
        assert crashes == [("pre-completion", 3)]
        assert injector.log.injected == {"process_kill": 1}

    def test_token_env_parsing(self, tmp_path):
        token = tmp_path / "token"
        token.write_text("armed")
        injector, crashes = self.armed(
            {
                "REPRO_SERVICE_CRASH": "mid-dispatch",
                "REPRO_SERVICE_CRASH_TOKEN": str(token),
            }
        )
        assert injector.crash_point("mid-dispatch")
        assert crashes == [("mid-dispatch", 1)]
        assert not token.exists()  # consumed: a restart will not crash

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError) as exc:
            crash_injector_from_env(
                {"REPRO_SERVICE_CRASH": "between-the-ticks"}
            )
        message = str(exc.value)
        assert "REPRO_SERVICE_CRASH='between-the-ticks'" in message
        for point in ("post-admission", "mid-dispatch", "pre-completion"):
            assert point in message

    @pytest.mark.parametrize(
        "spec",
        ["mid-dispatch:x", "mid-dispatch:0", "mid-dispatch:-1",
         "mid-dispatch:1.5", "mid-dispatch:\u00b2", "plan", "plan:2"],
    )
    def test_bad_arming_names_the_variable(self, spec):
        """A malformed ordinal (or a campaign-journal point) is a named
        error listing the valid points, not ``invalid literal for int()``
        from service construction."""
        with pytest.raises(ValueError, match="REPRO_SERVICE_CRASH=") as exc:
            crash_injector_from_env({"REPRO_SERVICE_CRASH": spec})
        assert "post-admission, mid-dispatch, pre-completion" in str(exc.value)
        assert "invalid literal" not in str(exc.value)

    def test_missing_token_disarms_the_crash(self, tmp_path):
        # Armed with a token that does not exist: the pass is a no-op —
        # this is what keeps a supervised restart from crash-looping.
        injector, crashes = self.armed(
            {
                "REPRO_SERVICE_CRASH": "mid-dispatch",
                "REPRO_SERVICE_CRASH_TOKEN": str(tmp_path / "absent"),
            }
        )
        assert not injector.crash_point("mid-dispatch")
        assert crashes == [] and injector.log.injected == {}


class TestServiceLedgerIntegration:
    def make_service(self, tmp_path, **overrides):
        kwargs = dict(
            workers=2,
            quota_rate=0.0,
            quota_burst=50.0,
            ledger_path=str(tmp_path / "ledger.jsonl"),
        )
        kwargs.update(overrides)
        return SchedulingService(ServiceConfig(**kwargs))

    def test_solve_is_journaled_and_settled(self, tmp_path):
        service = self.make_service(tmp_path)
        try:
            status, body = service.solve(solve_payload())
            assert status == 200
            stats = service.ledger.stats()
            assert (stats["open"], stats["closed"]) == (0, 1)
        finally:
            service.shutdown()

    def test_duplicate_submission_served_from_ledger(self, tmp_path):
        service = self.make_service(tmp_path)
        try:
            payload = solve_payload(
                idempotency_key="client-retry-1", cache=False
            )
            status1, body1 = service.solve(payload)
            status2, body2 = service.solve(payload)
            assert (status1, status2) == (200, 200)
            # Same response verbatim — not a re-execution.
            assert body2 == body1
            assert service.status_payload()["requests"]["ledger_hits"] == 1
        finally:
            service.shutdown()

    def test_settled_body_from_an_older_server_replays_verbatim(
        self, tmp_path
    ):
        """Bodies settled while replies still carried ``batch_size`` are
        returned as recorded, extra timing key and all."""
        payload = solve_payload(idempotency_key="old-server", cache=False)
        recorded = {
            "request_id": "req-000001",
            "cache": "miss",
            "key": "old-server",
            "solution": {"makespan": 12.0},
            "timing": {"queue_wait_s": 0.002, "solve_s": 0.001, "batch_size": 3},
        }
        with RequestLedger(tmp_path / "ledger.jsonl") as ledger:
            ledger.record_open("old-server", "solve", payload)
            ledger.record_close("old-server", 200, recorded)
        service = self.make_service(tmp_path)
        try:
            assert service.solve(payload) == (200, recorded)
            assert service.status_payload()["requests"]["ledger_hits"] == 1
        finally:
            service.shutdown()

    def test_concurrent_duplicates_coalesce(self, tmp_path):
        release = threading.Event()
        service = self.make_service(tmp_path, workers=1)
        original = service.dispatcher._solve_fn

        def slow_solve(work):
            release.wait(10.0)
            return original(work)

        service.dispatcher._solve_fn = slow_solve
        try:
            payload = solve_payload(idempotency_key="dup")
            first = service.begin_solve(payload)
            second = service.begin_solve(payload)
            assert isinstance(first, Future)
            assert second is first  # coalesced onto the same future
            release.set()
            status, _ = first.result(timeout=30.0)
            assert status == 200
            assert service.status_payload()["requests"]["coalesced"] == 1
        finally:
            release.set()
            service.shutdown()

    def test_recover_replays_open_entries(self, tmp_path):
        # Simulate a version-1 crash before the close: an open record
        # with no close, then a fresh service over the same ledger.
        warm = SchedulingService(ServiceConfig(workers=1))
        try:
            status, baseline = warm.solve(solve_payload())
            assert status == 200
        finally:
            warm.shutdown()
        ledger_path = tmp_path / "ledger.jsonl"
        payload = solve_payload()
        with RequestLedger(ledger_path) as ledger:
            ledger.record_open("crashed-key", "solve", payload)

        service = self.make_service(tmp_path)
        try:
            summary = service.recover()
            assert summary == {
                "replayed": 1,
                "solve": 1,
                "campaign": 0,
                "failed": 0,
            }
            # The solve executed again and its entry settled with the
            # baseline: a duplicate now gets the stored body.
            assert not service.ledger.is_open("crashed-key")
            status, body = service.ledger.closed_body("crashed-key")
            assert status == 200
            assert body["cache"] == "miss"
            assert body["solution"] == baseline["solution"]
            status_body = service.status_payload()
            assert status_body["requests"]["replayed"] == 1
            assert status_body["queue"]["dispatched"] == 1
        finally:
            service.shutdown()

    def test_recover_converges_through_the_memo_cache(self, tmp_path):
        # The solution is already in the in-memory memo cache but an
        # open record for the same payload was never closed.  Replay
        # must hit the cache, not re-run the solver.
        service = self.make_service(tmp_path)
        try:
            status, baseline = service.solve(solve_payload())
            assert status == 200
            assert service.status_payload()["queue"]["dispatched"] == 1
            service.ledger.record_open("lost-close", "solve", solve_payload())

            summary = service.recover()
            assert summary["replayed"] == 1 and summary["failed"] == 0
            status, body = service.ledger.closed_body("lost-close")
            assert status == 200
            assert body["cache"] == "hit"  # served, not re-executed
            assert body["solution"] == baseline["solution"]
            assert service.status_payload()["queue"]["dispatched"] == 1
        finally:
            service.shutdown()

    def test_recover_replays_campaigns(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        campaign = {
            "app": "nyx",
            "nodes": 2,
            "ppn": 2,
            "iterations": 2,
            "seed": 7,
        }
        with RequestLedger(ledger_path) as ledger:
            ledger.record_open("campaign-key", "campaign", campaign)
        service = self.make_service(tmp_path)
        try:
            summary = service.recover()
            assert summary["campaign"] == 1 and summary["failed"] == 0
            status, body = service.ledger.closed_body("campaign-key")
            assert status == 200
            assert body["campaign"]["iterations"] == 2
        finally:
            service.shutdown()

    def test_recover_resumes_a_journaled_campaign(self, tmp_path):
        # Run a journaled campaign to completion once, to produce a
        # committed journal; then hand the same journal to a replayed
        # campaign: resume finds it complete and replays the report.
        from repro.engines import CampaignSpec, run_campaign

        journal = tmp_path / "campaign.jsonl"
        spec = CampaignSpec(
            app="nyx", nodes=2, ppn=2, iterations=3, seed=11
        )
        baseline = run_campaign(spec, journal_path=str(journal))
        baseline.close()

        payload = {
            "app": "nyx",
            "nodes": 2,
            "ppn": 2,
            "iterations": 3,
            "seed": 11,
            "journal": str(journal),
        }
        with RequestLedger(tmp_path / "ledger.jsonl") as ledger:
            ledger.record_open("resume-key", "campaign", payload)
        service = self.make_service(tmp_path)
        try:
            summary = service.recover()
            assert summary["failed"] == 0
            status, body = service.ledger.closed_body("resume-key")
            assert status == 200
            assert (
                body["campaign"]["total_time"]
                == baseline.result.total_time
            )
        finally:
            service.shutdown()

    @pytest.mark.parametrize(
        "endpoint, payload",
        [
            ("solve", solve_payload(idempotency_key="enospc", cache=False)),
            (
                "campaign",
                {
                    "app": "nyx",
                    "nodes": 2,
                    "ppn": 2,
                    "iterations": 2,
                    "idempotency_key": "enospc",
                },
            ),
        ],
    )
    def test_failing_close_append_still_answers(
        self, tmp_path, monkeypatch, endpoint, payload
    ):
        """Disk full on the ledger *close*: the request is answered 500
        in bounded time and frees its in-flight slot.  A campaign stays
        open in the ledger, for a retry now or a replay at the next
        start; a solve's close is its only record, so it leaves
        nothing, and the retry solves it again."""
        service = self.make_service(tmp_path)
        begin = getattr(service, f"begin_{endpoint}")
        try:
            # A campaign's 1st fsync is its open record, the 2nd its
            # close; a solve's close is its 1st.
            fail_fsync(monkeypatch, nth=2 if endpoint == "campaign" else 1)
            pending = begin(payload)
            assert isinstance(pending, Future)
            status, body = pending.result(timeout=30.0)
            assert status == 500
            assert body["error"]["code"] == "internal_error"
            assert "No space left" in body["error"]["message"]
            status_body = service.status_payload()
            assert status_body["inflight"] == 0
            assert status_body["requests"]["errors"] == 1
            left_open = ["enospc"] if endpoint == "campaign" else []
            assert [e.key for e in service.ledger.incomplete()] == left_open

            # A duplicate is a fresh execution, not a waiter on the
            # dead future; the disk has room again and it settles.
            retry = begin(payload)
            assert retry is not pending
            assert retry.result(timeout=30.0)[0] == 200
            assert service.status_payload()["requests"]["coalesced"] == 0
            assert service.ledger.closed_body("enospc")[0] == 200
        finally:
            service.shutdown()
        assert verify_ledger(tmp_path / "ledger.jsonl").ok

    def test_unanswered_request_is_replayed_at_the_next_start(
        self, tmp_path, monkeypatch
    ):
        """A solve answered 500 because its close failed left no entry:
        the next start replays nothing, and the client's retry solves
        it again to the same solution."""
        payload = solve_payload(idempotency_key="enospc", cache=False)
        service = self.make_service(tmp_path)
        try:
            baseline = service.solve(solve_payload(cache=False))[1]
            fail_fsync(monkeypatch, nth=1)
            assert service.solve(payload, timeout=30.0)[0] == 500
        finally:
            service.shutdown()
        restarted = self.make_service(tmp_path)
        try:
            summary = restarted.recover()
            assert (summary["replayed"], summary["failed"]) == (0, 0)
            assert restarted.ledger.closed_body("enospc") is None
            status, body = restarted.solve(payload)
            assert (status, body["cache"]) == (200, "bypass")
            assert body["solution"] == baseline["solution"]
            assert restarted.ledger.closed_body("enospc")[0] == 200
        finally:
            restarted.shutdown()

    def test_unanswered_campaign_is_replayed_at_the_next_start(
        self, tmp_path, monkeypatch
    ):
        payload = {
            "app": "nyx",
            "nodes": 2,
            "ppn": 2,
            "iterations": 2,
            "idempotency_key": "enospc",
        }
        service = self.make_service(tmp_path)
        try:
            fail_fsync(monkeypatch, nth=2)  # the close record
            assert service.campaign(payload, timeout=60.0)[0] == 500
        finally:
            service.shutdown()
        restarted = self.make_service(tmp_path)
        try:
            summary = restarted.recover()
            assert summary == {
                "replayed": 1,
                "solve": 0,
                "campaign": 1,
                "failed": 0,
            }
            assert restarted.ledger.closed_body("enospc")[0] == 200
        finally:
            restarted.shutdown()

    def test_failing_open_append_still_answers(self, tmp_path, monkeypatch):
        """Only a campaign writes an open record; when it fails the
        campaign is answered 500, never runs, and leaves nothing."""
        payload = {"app": "nyx", "nodes": 2, "ppn": 2, "iterations": 2}
        service = self.make_service(tmp_path)
        try:
            fail_fsync(monkeypatch, nth=1)
            status, body = service.campaign(payload)
            assert status == 500
            assert body["error"]["code"] == "internal_error"
            assert service.status_payload()["inflight"] == 0
            assert service.ledger.incomplete() == []
            assert service.ledger.stats()["records"] == 1
            assert service.campaign(payload)[0] == 200
        finally:
            service.shutdown()

    def test_rejected_after_admission_then_retried_under_the_same_key(
        self, tmp_path
    ):
        """A 429 after admission writes nothing; the retry is not
        ledgered while it is queued, and only its 200 settles the key,
        for good."""
        import shutil

        import numpy as np

        def unique(seed, **extra):
            instance = random_instance(np.random.default_rng(seed), num_jobs=3)
            return solve_payload(instance, cache=False, **extra)

        service = self.make_service(tmp_path, workers=1, max_queue=1)
        release, running = threading.Event(), threading.Event()
        inner = service.dispatcher._solve_fn

        def blocking(work):
            running.set()
            release.wait(30.0)
            return inner(work)

        service.dispatcher._solve_fn = blocking
        ledger_path = tmp_path / "ledger.jsonl"
        try:
            busy = [service.begin_solve(unique(0))]
            assert running.wait(10.0)  # worker busy; the queue fills
            busy.append(service.begin_solve(unique(1)))
            payload = unique(2, idempotency_key="retry-me")
            status, body = service.solve(payload)
            assert (status, body["error"]["code"]) == (429, "queue_full")
            assert service.ledger.closed_body("retry-me") is None
            assert service.ledger.stats()["records"] == 1
            release.set()
            assert [p.result(timeout=30.0)[0] for p in busy] == [200, 200]
            assert service.ledger.stats()["records"] == 3

            # A crash while the retry is queued behind a busy worker
            # leaves nothing to replay: the client's retry re-solves.
            release.clear()
            running.clear()
            blocker = service.begin_solve(unique(3, idempotency_key="busy"))
            assert running.wait(10.0)
            retry = service.begin_solve(payload)
            snapshot = tmp_path / "as-found-after-a-crash.jsonl"
            shutil.copy(ledger_path, snapshot)
            with RequestLedger(snapshot) as found:
                assert found.incomplete() == []
                assert found.closed_body("retry-me") is None
            release.set()
            status, answered = retry.result(timeout=30.0)
            assert status == 200
            assert blocker.result(timeout=30.0)[0] == 200
        finally:
            release.set()
            service.shutdown()
        report = verify_ledger(ledger_path)
        assert report.ok, report.format()

        # After a restart the duplicate is a ledger hit with the
        # recorded body, byte for byte; nothing is replayed, nothing
        # runs again.
        restarted = self.make_service(tmp_path)
        try:
            assert restarted.recover()["replayed"] == 0
            status, hit = restarted.solve(payload)
            assert (status, hit) == (200, answered)
            assert hit.encoded == answered.encoded
            status_body = restarted.status_payload()
            assert status_body["requests"]["ledger_hits"] == 1
            assert status_body["queue"]["dispatched"] == 0
        finally:
            restarted.shutdown()

    def test_recover_without_ledger_is_a_noop(self):
        service = SchedulingService(
            ServiceConfig(quota_rate=0.0, quota_burst=50.0)
        )
        try:
            assert service.recover() == {
                "replayed": 0,
                "solve": 0,
                "campaign": 0,
                "failed": 0,
            }
        finally:
            service.shutdown()

    def test_status_reports_ledger(self, tmp_path):
        service = self.make_service(tmp_path)
        try:
            ledger_stats = service.status_payload()["ledger"]
            assert ledger_stats["records"] == 1  # the begin record
        finally:
            service.shutdown()
