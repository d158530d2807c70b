"""Byte pins for the v4 blocks the encoder writes.

The decode goldens (``block_v1``..``v3``) prove old blocks still read;
the engine equivalence suite proves the serial and pool planes agree
with each other.  Neither notices an encoder change that alters the
bytes every plane writes.  ``data/block_v4_digests.json`` holds the
SHA-256 of the ``compress_field_blocks`` payloads for:

* nyx 64^3 at 64 KiB blocks: ``baryon_density``, ``temperature`` and
  ``velocity_x`` (iteration 12, seed 23);
* warpx 96^3 ``Ex`` at 8 MiB (one 7 MB block);
* one shared-tree block: nyx ``temperature`` as a single 2 MiB block
  coded with a tree trained on ``baryon_density`` (so some symbols
  are rerouted to the outlier channel);
* nyx ``temperature`` at 64 KiB under the ``deflate`` backend, whose
  extra-bits section goes through ``pack_bits``.

Rewrite the file only when the block bytes are meant to change::

    python -m tests.compression.test_block_digests --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.apps import NyxModel, WarpXModel
from repro.compression import (
    CompressedBlock,
    SZCompressor,
    build_codebook,
    compress_field_blocks,
)

_PATH = Path(__file__).parent / "data" / "block_v4_digests.json"
_SEED = 23
_ITERATION = 12
_NYX_FIELDS = ("baryon_density", "temperature", "velocity_x")


def _nyx():
    return NyxModel(seed=_SEED, partition_shape=(64,) * 3)


def _field_blocks(app, name, block_bytes, compressor=None, shared=None):
    return compress_field_blocks(
        compressor or SZCompressor(),
        name,
        app.generate_field(name, 0, _ITERATION),
        app.field(name).error_bound,
        block_bytes,
        shared_codebook=shared,
    )


def _shared_tree_block():
    app = _nyx()
    compressor = SZCompressor()
    train = app.generate_field("baryon_density", 0, _ITERATION)
    hist = compressor.histogram(
        train, app.field("baryon_density").error_bound
    )
    shared = build_codebook(
        hist,
        force_symbols=(compressor.sentinel,),
        max_length=compressor.backend.build_max_length,
    )
    return _field_blocks(app, "temperature", 1 << 21, compressor, shared)


_CASES = {
    **{
        f"nyx-{name}-64k": (
            lambda name=name: _field_blocks(_nyx(), name, 1 << 16)
        )
        for name in _NYX_FIELDS
    },
    "warpx-Ex-8m": lambda: _field_blocks(
        WarpXModel(seed=_SEED, partition_shape=(96,) * 3), "Ex", 1 << 23
    ),
    "nyx-temperature-shared-tree": _shared_tree_block,
    "nyx-temperature-64k-deflate": lambda: _field_blocks(
        _nyx(), "temperature", 1 << 16, SZCompressor(backend="deflate")
    ),
}


def digest(name: str) -> dict:
    """Block count and SHA-256 over every payload of one case."""
    blocks = _CASES[name]()
    sha = hashlib.sha256()
    for _, payload, _ in blocks:
        sha.update(payload)
    return {"blocks": len(blocks), "sha256": sha.hexdigest()}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_blocks_match_pinned_digest(name):
    pinned = json.loads(_PATH.read_text())
    assert digest(name) == pinned[name], name


def test_shared_tree_case_reroutes_symbols():
    """The shared-tree pin covers the reroute path, not just a tree
    that happens to code every symbol."""
    ((_, payload, _),) = _shared_tree_block()
    block = CompressedBlock.from_bytes(payload)
    assert block.used_shared_tree
    app = _nyx()
    values = app.generate_field("temperature", 0, _ITERATION)
    quantized = SZCompressor().quantize(
        values, app.field("temperature").error_bound
    )
    assert block.num_outliers > quantized.outlier_positions.size


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(
            "usage: python -m tests.compression.test_block_digests --write"
        )
    _PATH.write_text(
        json.dumps({name: digest(name) for name in sorted(_CASES)}, indent=2)
        + "\n"
    )
    print(f"wrote {_PATH}")
