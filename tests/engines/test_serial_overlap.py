"""The serial plane generates the next field on one helper thread while
the calling thread compresses the current one.

Pinned here: the two really overlap, the lookahead is exactly one field,
the stored bytes equal the strictly sequential core's, and an error on
either side re-raises its own exception, publishes nothing and leaves
no thread behind.
"""

import os
import threading
import time

import pytest

from repro.engines import CampaignSpec, SerialDataPlane
from repro.engines import dataplane
from repro.io.hdf5like import SharedFileReader

#: Seconds a test waits for the other thread before calling it stuck.
_WAIT_S = 5.0


def small_spec(data_dir, **overrides) -> CampaignSpec:
    base = dict(
        app="nyx",
        nodes=1,
        ppn=2,
        seed=5,
        data_edge=8,
        data_fields=3,
        data_block_bytes=1024,
        data_dir=str(data_dir),
    )
    base.update(overrides)
    return CampaignSpec(**base)


class HookedApp:
    """The plane's application, with ``on_generate(k, rank, name)``
    called at the start of the ``k``-th ``generate_field`` (0-based) and
    ``after_generate(k)`` at its end."""

    def __init__(self, app, on_generate=None, after_generate=None):
        self._app = app
        self._on_generate = on_generate
        self._after_generate = after_generate
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._app, name)

    def generate_field(self, name, rank, iteration):
        k, self.calls = self.calls, self.calls + 1
        if self._on_generate is not None:
            self._on_generate(k, rank, name)
        values = self._app.generate_field(name, rank, iteration)
        if self._after_generate is not None:
            self._after_generate(k)
        return values


def hook_compress(monkeypatch, before=None, after=None):
    """Call ``before(k)``/``after(k)`` around the ``k``-th field's compress
    step (0-based)."""
    real = dataplane.compress_field_blocks
    calls = [0]

    def compress_field_blocks(*args, **kwargs):
        k = calls[0]
        calls[0] += 1
        if before is not None:
            before(k)
        blocks = real(*args, **kwargs)
        if after is not None:
            after(k)
        return blocks

    monkeypatch.setattr(
        dataplane, "compress_field_blocks", compress_field_blocks
    )


def stored(path) -> dict[str, bytes]:
    with SharedFileReader(path) as reader:
        return {name: reader.read(name) for name in reader.names()}


def sequential_core(plane, iteration=1):
    """CRC map and payloads of ``_rank_result`` over every rank."""
    crcs, payloads = {}, {}
    for rank in range(plane.ranks):
        for name, payload, crc in plane._rank_result(
            iteration, rank
        ).payloads:
            crcs[f"it{iteration:04d}/{name}"] = crc
            payloads[name] = payload
    return crcs, payloads


def helper_threads() -> list[threading.Thread]:
    return [
        t
        for t in threading.enumerate()
        if t.name.startswith("repro-generate")
    ]


def test_next_field_generates_while_the_current_one_compresses(
    tmp_path, monkeypatch
):
    second_started = threading.Event()
    waited = []
    plane = SerialDataPlane(small_spec(tmp_path))
    plane.app = HookedApp(
        plane.app,
        on_generate=lambda k, rank, name: k == 1 and second_started.set(),
    )
    hook_compress(
        monkeypatch,
        before=lambda k: k == 0 and waited.append(
            second_started.wait(_WAIT_S)
        ),
    )
    try:
        plane.dump(1)
    finally:
        plane.close()
    # Field 1 was generated while field 0 compressed.
    assert waited == [True]


def test_lookahead_is_exactly_one_field(tmp_path, monkeypatch):
    events, lock = [], threading.Lock()

    def record(*event):
        with lock:
            events.append(event)

    def slow_compress_start(k):
        record("compress-start", k)
        # Room for a helper that ran ahead to show it.
        time.sleep(0.02)

    plane = SerialDataPlane(small_spec(tmp_path))
    plane.app = HookedApp(
        plane.app,
        on_generate=lambda k, rank, name: record("generate-start", k),
        after_generate=lambda k: record("generate-end", k),
    )
    hook_compress(
        monkeypatch,
        before=slow_compress_start,
        after=lambda k: record("compress-end", k),
    )
    try:
        plane.dump(1)
    finally:
        plane.close()
    fields = plane.ranks * len(plane.field_specs)
    assert len(events) == 4 * fields
    at = {event: i for i, event in enumerate(events)}
    for k in range(fields):
        assert at[("generate-end", k)] < at[("compress-start", k)]
        if k + 2 < fields:
            assert at[("compress-end", k)] < at[("generate-start", k + 2)]


@pytest.mark.parametrize("app", ["nyx", "warpx", "hacc"])
@pytest.mark.parametrize("ranks, fields", [(1, 1), (1, 3), (4, 3)])
def test_bytes_equal_the_sequential_core(tmp_path, app, ranks, fields):
    spec = small_spec(tmp_path, app=app, ppn=ranks, data_fields=fields)
    plane = SerialDataPlane(spec)
    before = threading.active_count()
    try:
        plane.dump(1)
        assert threading.active_count() == before
        crcs, payloads = sequential_core(plane)
    finally:
        plane.close()
    assert plane.stats.block_crc32c == crcs
    assert stored(plane.stats.containers[1]) == payloads
    with SharedFileReader(plane.stats.containers[1]) as reader:
        # Same rank/field/block order as the sequential core.
        assert list(reader.names()) == list(payloads)


class Injected(Exception):
    """Raised by a test hook; must reach the caller as itself."""


@pytest.fixture
def clean_bytes(tmp_path):
    plane = SerialDataPlane(small_spec(tmp_path / "clean", ppn=3))
    try:
        plane.dump(1)
    finally:
        plane.close()
    return plane.stats.block_crc32c, stored(plane.stats.containers[1])


def _assert_failed_cleanly(plane, data_dir, before, clean_bytes):
    assert os.listdir(data_dir) == []
    assert plane.stats.containers == {}
    assert plane.stats.block_crc32c == {}
    assert threading.active_count() == before
    assert helper_threads() == []
    plane.app = plane.app._app
    plane.dump(1)
    assert (
        plane.stats.block_crc32c,
        stored(plane.stats.containers[1]),
    ) == clean_bytes


def test_generation_error_reraises_and_leaves_nothing(
    tmp_path, clean_bytes
):
    data_dir = tmp_path / "plane"
    plane = SerialDataPlane(small_spec(data_dir, ppn=3))
    names = [fs.name for fs in plane.field_specs]

    def fail_at_rank1_field2(k, rank, name):
        if (rank, name) == (1, names[2]):
            raise Injected("generation failed")

    plane.app = HookedApp(plane.app, on_generate=fail_at_rank1_field2)
    before = threading.active_count()
    try:
        with pytest.raises(Injected, match="generation failed"):
            plane.dump(1)
        # Rank 0's three fields, then rank 1's up to field 2: no more.
        assert plane.app.calls == 6
        _assert_failed_cleanly(plane, data_dir, before, clean_bytes)
    finally:
        plane.close()


def test_compress_error_while_generating_reraises_and_leaves_nothing(
    tmp_path, monkeypatch, clean_bytes
):
    data_dir = tmp_path / "plane"
    plane = SerialDataPlane(small_spec(data_dir, ppn=3))
    generating, generated = threading.Event(), threading.Event()

    def slow_field_2(k, rank, name):
        if k == 2:
            generating.set()
            time.sleep(0.2)

    def fail_field_1(k):
        if k == 1:
            assert generating.wait(_WAIT_S)
            raise Injected("codec failed")

    plane.app = HookedApp(
        plane.app,
        on_generate=slow_field_2,
        after_generate=lambda k: k == 2 and generated.set(),
    )
    hook_compress(monkeypatch, before=fail_field_1)
    before = threading.active_count()
    try:
        with pytest.raises(Injected, match="codec failed"):
            plane.dump(1)
        # The in-flight field finished before dump() returned, and none
        # was started after it.
        assert generated.is_set()
        assert plane.app.calls == 3
        monkeypatch.undo()
        _assert_failed_cleanly(plane, data_dir, before, clean_bytes)
    finally:
        plane.close()
