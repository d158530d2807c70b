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

import json
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
    reassemble_field,
    slice_field,
)
from ..compression.huffman import Codebook
from ..io import (
    AsyncWriter,
    SharedFileReader,
    SharedFileWriter,
    SubfileReader,
    SubfileWriter,
)

__all__ = ["SnapshotStats", "save_snapshot", "load_snapshot"]

_MANIFEST = "__manifest__"
_CODEBOOK = "__codebook__"


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
    layout: str = "shared",
    num_subfiles: int = 4,
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
        layout: ``"shared"`` writes one shared file at ``path``;
            ``"subfiled"`` treats ``path`` as a directory and spreads
            datasets over ``num_subfiles`` containers (the Section 6
            multi-file future work).
        num_subfiles: subfile count for the subfiled layout.
    """
    if layout not in ("shared", "subfiled"):
        raise ValueError(f"unknown layout {layout!r}")
    if not fields:
        raise ValueError("no fields to save")
    compressor = compressor or SZCompressor()
    ratio_model = RatioModel(compressor)
    bounds = _resolve_bounds(fields, error_bounds)

    manifest: dict[str, dict] = {}
    payloads: list[tuple[str, bytes, int]] = []
    for name, data in fields.items():
        if data.dtype not in (np.float32, np.float64):
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

    if layout == "subfiled":
        writer_cm = SubfileWriter(path, num_subfiles=num_subfiles)
    else:
        writer_cm = SharedFileWriter(path)
    with writer_cm as writer:
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
                _CODEBOOK, codebook_to_bytes(shared_codebook)
            )
        writer.write_unreserved(
            _MANIFEST, json.dumps(manifest).encode()
        )

    return SnapshotStats(
        raw_bytes=sum(data.nbytes for data in fields.values()),
        compressed_bytes=sum(len(payload) for _, payload, _ in payloads),
        num_blocks=len(payloads),
        overflow_blocks=overflow_blocks,
    )


def load_snapshot(
    path,
    compressor: SZCompressor | None = None,
    verify_bounds: bool = False,
) -> dict[str, np.ndarray]:
    """Restore every field of a snapshot written by :func:`save_snapshot`.

    With ``verify_bounds`` the loader re-checks that every block's
    declared error bound is structurally plausible (dtype/shape match);
    actual error verification requires the original data and lives in the
    tests and examples.
    """
    import os

    compressor = compressor or SZCompressor()
    if os.path.isdir(path):
        reader_cm = SubfileReader(path)
    else:
        reader_cm = SharedFileReader(path)
    with reader_cm as reader:
        if _MANIFEST not in reader.entries:
            raise ValueError(f"{path} has no snapshot manifest")
        try:
            manifest = json.loads(reader.read(_MANIFEST).decode())
        except ValueError as exc:
            raise ValueError(
                f"snapshot {path}: manifest is corrupt: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ValueError(
                f"snapshot {path}: manifest is corrupt: expected a JSON "
                f"object, got {type(manifest).__name__}"
            )
        shared = None
        if _CODEBOOK in reader.entries:
            try:
                shared = codebook_from_bytes(reader.read(_CODEBOOK))
            except ValueError as exc:
                raise ValueError(
                    f"snapshot {path}: shared codebook is corrupt: {exc}"
                ) from exc

        fields: dict[str, np.ndarray] = {}
        for name, meta in manifest.items():
            try:
                block_bytes = _infer_block_bytes(meta, reader, name)
            except ValueError as exc:
                entry = reader.entries.get(f"{name}/0")
                offset = getattr(entry, "offset", None)
                raise ValueError(
                    f"snapshot {path}: field {name!r} block 0"
                    + (f" (offset {offset})" if offset is not None else "")
                    + f": {exc}"
                ) from exc
            specs = plan_blocks(
                name,
                tuple(meta["shape"]),
                np.dtype(meta["dtype"]).itemsize,
                block_bytes,
            )
            declared_crcs = meta.get("block_crc32c")
            blocks = []
            for spec in specs:
                index = spec.block_index
                key = f"{name}/{index}"
                entry = reader.entries.get(key)
                offset = getattr(entry, "offset", None)
                where = (
                    f"snapshot {path}: field {name!r} block {index}"
                    + (f" (offset {offset})" if offset is not None else "")
                )
                if entry is None:
                    raise ValueError(f"{where}: missing from container")
                expected = None
                if declared_crcs is not None and index < len(declared_crcs):
                    expected = declared_crcs[index]
                try:
                    payload = reader.read(key)
                    block = CompressedBlock.from_bytes(
                        payload, expected_crc32c=expected
                    )
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from exc
                if verify_bounds:
                    if block.shape != spec.shape:
                        raise ValueError(
                            f"block {name}/{spec.block_index} shape "
                            f"mismatch: {block.shape} != {spec.shape}"
                        )
                recon = compressor.decompress(
                    block,
                    shared_codebook=shared
                    if block.used_shared_tree
                    else None,
                )
                blocks.append((spec, recon))
            fields[name] = reassemble_field(blocks)
        return fields


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


def _infer_block_bytes(meta: dict, reader, name: str) -> int:
    """Reconstruct the writer's block size from the block count.

    ``plan_blocks`` divides axis 0 evenly, so the count determines the
    split; any target size that reproduces that count works.  We read
    block 0's stored shape for an exact answer.
    """
    num_blocks = meta["num_blocks"]
    if num_blocks == 1:
        return 2**62  # anything >= field size keeps the field whole
    block0 = CompressedBlock.from_bytes(reader.read(f"{name}/0"))
    rows = block0.shape[0]
    row_bytes = (
        int(np.prod(block0.shape[1:], dtype=np.int64))
        * np.dtype(meta["dtype"]).itemsize
    )
    return max(1, rows * row_bytes)
