"""High-level snapshot API: dump and restore named fields in one call.

This is the downstream-facing entry point that ties the whole stack
together the way the paper's framework does inside an application:
fine-grained blocking, error-bounded compression with an optional shared
Huffman tree, pre-compression size prediction for offset reservation,
background-thread asynchronous writes with overflow handling, and a
self-describing manifest so a snapshot reloads with no external state.

::

    from repro.framework import save_snapshot, load_snapshot

    stats = save_snapshot("snap.rpio", {"rho": rho, "T": temp},
                          error_bounds={"rho": 0.2, "T": 1e3})
    fields = load_snapshot("snap.rpio")

Snapshots embed the codebook(s) used, so ``load_snapshot`` never needs
the writer's shared-tree state.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ..compression import (
    CompressedBlock,
    RatioModel,
    SZCompressor,
    codebook_from_bytes,
    codebook_to_bytes,
    compress_field_blocks,
    plan_blocks,
    slice_field,
)
from ..compression.huffman import Codebook
from ..io import AsyncWriter, SharedFileReader, SharedFileWriter

__all__ = ["SnapshotStats", "save_snapshot", "load_snapshot"]

#: Reserved container entries: every other entry is a ``<field>/<index>``
#: block.
MANIFEST = "__manifest__"
CODEBOOK = "__codebook__"
_DTYPES = ("float32", "float64")  # the two dtypes save_snapshot writes


@dataclass(frozen=True)
class SnapshotStats:
    """Outcome of one snapshot dump."""

    raw_bytes: int
    compressed_bytes: int
    num_blocks: int
    overflow_blocks: int

    @property
    def compression_ratio(self) -> float:
        return self.raw_bytes / max(1, self.compressed_bytes)


def save_snapshot(
    path,
    fields: dict[str, np.ndarray],
    error_bounds: dict[str, float] | float,
    block_bytes: int = 8 * 2**20,
    compressor: SZCompressor | None = None,
    shared_codebook: Codebook | None = None,
) -> SnapshotStats:
    """Compress and write ``fields`` to one self-describing shared file.

    Args:
        path: output file path.
        fields: name -> float32/float64 array.
        error_bounds: absolute error bound per field, or one bound for
            every field.
        block_bytes: fine-grained block size (Section 4.1).
        compressor: SZ-style compressor to use (default radius 128).
        shared_codebook: a shared Huffman tree to code every block with
            (Section 4.3); embedded in the file for self-containment.
    """
    if not fields:
        raise ValueError("no fields to save")
    compressor = compressor or SZCompressor()
    ratio_model = RatioModel(compressor)
    bounds = _resolve_bounds(fields, error_bounds)

    manifest: dict[str, dict] = {}
    payloads: list[tuple[str, bytes, int]] = []
    for name, data in fields.items():
        if data.dtype.name not in _DTYPES:
            raise TypeError(f"field {name!r} has dtype {data.dtype}")
        blocks = compress_field_blocks(
            compressor,
            name,
            data,
            bounds[name],
            block_bytes,
            shared_codebook=shared_codebook,
        )
        # The compression-time CRC32Cs are declared in the manifest so
        # the loader can check every block against them end to end.
        manifest[name] = {
            "shape": list(data.shape),
            "dtype": data.dtype.name,
            "error_bound": bounds[name],
            "num_blocks": len(blocks),
            "block_crc32c": [checksum for _, _, checksum in blocks],
        }
        payloads.extend(blocks)

    with SharedFileWriter(path) as writer:
        # Reserve offsets from predicted sizes (Section 4.4); the
        # prediction reuses the actual bound/codebook configuration.
        for name, data in fields.items():
            for spec in plan_blocks(
                name, data.shape, data.itemsize, block_bytes
            ):
                estimate = ratio_model.predict(
                    np.ascontiguousarray(slice_field(data, spec)),
                    bounds[name],
                    shared_codebook=shared_codebook,
                )
                writer.reserve(
                    f"{name}/{spec.block_index}",
                    estimate.compressed_nbytes,
                )

        with AsyncWriter(writer) as background:
            jobs = [
                background.submit(dataset, payload, checksum=checksum)
                for dataset, payload, checksum in payloads
            ]
            background.drain()
            # A failed write surfaces here and aborts the container.
            for job in jobs:
                job.wait()
        overflow_blocks = sum(
            1 for j in jobs if j.fit_reservation is False
        )

        if shared_codebook is not None:
            writer.write_unreserved(
                CODEBOOK, codebook_to_bytes(shared_codebook)
            )
        writer.write_unreserved(
            MANIFEST, json.dumps(manifest).encode()
        )

    return SnapshotStats(
        raw_bytes=sum(data.nbytes for data in fields.values()),
        compressed_bytes=sum(len(payload) for _, payload, _ in payloads),
        num_blocks=len(payloads),
        overflow_blocks=overflow_blocks,
    )


def load_snapshot(
    path, compressor: SZCompressor | None = None
) -> dict[str, np.ndarray]:
    """Restore every field of a snapshot written by :func:`save_snapshot`.

    Blocks are axis-0 slabs, so a field is its decoded blocks stacked in
    index order; :func:`read_snapshot` has checked that they stack to
    the manifest's shape and dtype.  Damage raises ``ValueError``.
    """
    compressor = compressor or SZCompressor()
    with SharedFileReader(path) as reader:
        codebook, fields = read_snapshot(reader, path)
    decode = functools.partial(compressor.decompress, shared_codebook=codebook)
    return {
        name: np.concatenate([decode(block) for block in blocks])
        for name, blocks in fields.items()
    }


def _problem(path, issues: list[str] | None, message: str) -> None:
    """Strict (``issues`` is None) raises ``ValueError``; else appends."""
    if issues is None:
        raise ValueError(f"snapshot {path}: {message}")
    issues.append(f"snapshot {path}: {message}")


def _count(value) -> bool:
    return type(value) is int and value >= 0  # JSON ints, bools excluded


def _field_error(meta) -> str | None:
    """What is wrong with one manifest field entry, if anything."""
    if not isinstance(meta, dict):
        return f"expected an object, got {type(meta).__name__}"
    shape, count = meta.get("shape"), meta.get("num_blocks")
    bound, crcs = meta.get("error_bound"), meta.get("block_crc32c", [])
    if not (isinstance(shape, list) and shape and all(map(_count, shape))):
        return f"'shape' must be a list of ints >= 0, got {shape!r}"
    if meta.get("dtype") not in _DTYPES:
        return f"'dtype' must be one of {_DTYPES}, got {meta.get('dtype')!r}"
    if not (_count(count) and count >= 1):
        return f"'num_blocks' must be an int >= 1, got {count!r}"
    if type(bound) not in (int, float) or not 0 < bound < math.inf:
        return f"'error_bound' must be a positive number, got {bound!r}"
    if "block_crc32c" in meta and not (
        isinstance(crcs, list)
        and len(crcs) == count
        and all(map(_count, crcs))
    ):
        return f"'block_crc32c' must be a list of {count} ints"
    return None


def read_manifest(reader, path, issues: list[str] | None = None) -> dict:
    """The snapshot's manifest, every field entry checked.

    The one reader of the manifest: with ``issues=None`` (strict) the
    first problem raises a ``ValueError`` naming the path and field;
    given a list (scrub) each problem is appended to it and only the
    sound fields are returned.
    """
    problem = functools.partial(_problem, path, issues)
    if MANIFEST not in reader.entries:
        problem("no snapshot manifest")
        return {}
    try:
        manifest = json.loads(reader.read(MANIFEST).decode())
        if not isinstance(manifest, dict):
            raise ValueError(
                f"expected a JSON object, got {type(manifest).__name__}"
            )
    except ValueError as exc:  # checksum, UTF-8 and JSON errors too
        problem(f"manifest is corrupt: {exc}")
        return {}
    fields = {}
    for name, meta in manifest.items():
        error = _field_error(meta)
        if error is None:
            fields[name] = meta
        else:
            problem(f"manifest field {name!r}: {error}")
    return fields


def read_snapshot(
    reader, path, issues: list[str] | None = None
) -> tuple[Codebook | None, dict[str, list[CompressedBlock]]]:
    """Walk a snapshot: ``(shared codebook, {field: parsed blocks})``.

    The one walk of the format, behind ``load_snapshot`` and ``repro
    verify``, strict or collecting like :func:`read_manifest`.  Each
    ``<field>/<index>`` is parsed under its declared CRC32C, and a
    field's blocks must stack along axis 0 to the manifest's shape and
    dtype; only fields that do are returned.  ``__codebook__`` must
    decode, and must exist when a block used the shared tree.
    """
    problem = functools.partial(_problem, path, issues)
    manifest = read_manifest(reader, path, issues)
    codebook = None
    if CODEBOOK in reader.entries:
        try:
            codebook = codebook_from_bytes(reader.read(CODEBOOK))
        except ValueError as exc:
            problem(f"shared codebook is corrupt: {exc}")
    fields = {}
    for name, meta in manifest.items():
        count, shape = meta["num_blocks"], meta["shape"]
        crcs = meta.get("block_crc32c") or itertools.repeat(None)
        blocks = []
        for index, expected in zip(range(count), crcs):
            entry = reader.entries.get(f"{name}/{index}")
            where = f"field {name!r} block {index}"
            if entry is None:
                problem(f"{where}: missing from container")
                break  # bounds the walk whatever count the manifest says
            where += f" (offset {entry.offset})"
            try:
                block = CompressedBlock.from_bytes(
                    reader.read(entry.name), expected_crc32c=expected
                )
            except ValueError as exc:
                problem(f"{where}: {exc}")
                continue
            if block.used_shared_tree and CODEBOOK not in reader.entries:
                problem(f"{where}: uses a shared tree but no {CODEBOOK}")
                continue
            blocks.append(block)
        if len(blocks) < count:
            continue
        rows = sum(block.shape[0] for block in blocks)
        slabs = {(block.dtype.name, block.shape[1:]) for block in blocks}
        if rows == shape[0] and slabs == {(meta["dtype"], tuple(shape[1:]))}:
            fields[name] = blocks
        else:
            problem(
                f"field {name!r}: blocks stack to {rows} rows of "
                f"{sorted(slabs)}, the manifest declares "
                f"{meta['dtype']} {shape}"
            )
    return codebook, fields


def _resolve_bounds(
    fields: dict[str, np.ndarray],
    error_bounds: dict[str, float] | float,
) -> dict[str, float]:
    if isinstance(error_bounds, dict):
        missing = set(fields) - set(error_bounds)
        if missing:
            raise ValueError(f"missing error bounds for {sorted(missing)}")
        bounds = {name: float(error_bounds[name]) for name in fields}
    else:
        bounds = {name: float(error_bounds) for name in fields}
    for name, bound in bounds.items():
        if bound <= 0:
            raise ValueError(f"error bound for {name!r} must be positive")
    return bounds
