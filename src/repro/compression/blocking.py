"""Fine-grained compression: slicing data fields into small blocks.

Section 4.1: applications expose only 6-12 fields, far too coarse for the
scheduler to weave tasks into computation gaps, so each field is sliced
into blocks of ~8-16 MB along its slowest-varying axis, "ensuring an even
division of each data field".  Each block becomes one job (compression
task + I/O task).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..durability.checksum import crc32c

if TYPE_CHECKING:
    from .huffman import Codebook
    from .sz import SZCompressor

__all__ = [
    "BlockSpec",
    "plan_blocks",
    "slice_field",
    "reassemble_field",
    "compress_field_blocks",
]


@dataclass(frozen=True)
class BlockSpec:
    """Where one block sits inside its field."""

    field_name: str
    block_index: int
    start_row: int  # along axis 0
    end_row: int
    field_shape: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.end_row - self.start_row, *self.field_shape[1:])

    def num_values(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))


def plan_blocks(
    field_name: str,
    field_shape: tuple[int, ...],
    itemsize: int,
    target_block_bytes: int,
) -> list[BlockSpec]:
    """Plan an even slicing of a field into ~``target_block_bytes`` blocks.

    The number of blocks is the divisor of ``field_shape[0]`` whose block
    size is closest to the target (so every block has identical shape, the
    paper's "evenly divided" requirement).  A field smaller than the
    target stays whole.
    """
    if target_block_bytes <= 0:
        raise ValueError("target_block_bytes must be positive")
    if not field_shape:
        raise ValueError("field must have at least one dimension")
    rows = field_shape[0]
    row_bytes = itemsize * int(np.prod(field_shape[1:], dtype=np.int64))
    field_bytes = rows * row_bytes
    if field_bytes <= target_block_bytes or rows == 1:
        return [
            BlockSpec(field_name, 0, 0, rows, tuple(field_shape))
        ]
    ideal = max(1, round(field_bytes / target_block_bytes))
    divisors = [d for d in range(1, rows + 1) if rows % d == 0]
    num_blocks = min(divisors, key=lambda d: abs(d - ideal))
    step = rows // num_blocks
    return [
        BlockSpec(
            field_name,
            i,
            i * step,
            (i + 1) * step,
            tuple(field_shape),
        )
        for i in range(num_blocks)
    ]


def slice_field(field: np.ndarray, spec: BlockSpec) -> np.ndarray:
    """The view of ``field`` that ``spec`` describes."""
    if field.shape != spec.field_shape:
        raise ValueError(
            f"field shape {field.shape} does not match spec "
            f"{spec.field_shape}"
        )
    return field[spec.start_row : spec.end_row]


def compress_field_blocks(
    compressor: SZCompressor,
    field_name: str,
    values: np.ndarray,
    error_bound: float,
    block_bytes: int,
    *,
    prefix: str = "",
    shared_codebook: Codebook | None = None,
) -> list[tuple[str, bytes, int]]:
    """Compress one field into ``(dataset, payload, crc32c)`` blocks.

    The one field-to-stored-bytes loop: both engines' data planes, the
    pool worker and ``save_snapshot`` call exactly this, so the same
    field, bound and ``block_bytes`` yield byte-identical payloads on
    every path.  Datasets are named ``{prefix}{field_name}/{index}``;
    the CRC32C taken here is the end-to-end integrity anchor every later
    layer (async writer, container, loader) checks the payload against.
    """
    blocks = []
    for spec in plan_blocks(
        field_name, values.shape, values.itemsize, block_bytes
    ):
        block = np.ascontiguousarray(slice_field(values, spec))
        payload = compressor.compress(
            block, error_bound, shared_codebook=shared_codebook
        ).to_bytes()
        blocks.append(
            (
                f"{prefix}{field_name}/{spec.block_index}",
                payload,
                crc32c(payload),
            )
        )
    return blocks


def reassemble_field(
    blocks: list[tuple[BlockSpec, np.ndarray]]
) -> np.ndarray:
    """Rebuild a full field from its (spec, data) blocks."""
    if not blocks:
        raise ValueError("no blocks to reassemble")
    field_shape = blocks[0][0].field_shape
    dtype = blocks[0][1].dtype
    field = np.empty(field_shape, dtype=dtype)
    covered = np.zeros(field_shape[0], dtype=bool)
    for spec, data in blocks:
        if spec.field_shape != field_shape:
            raise ValueError("blocks come from different fields")
        if data.shape != spec.shape:
            raise ValueError(
                f"block data shape {data.shape} != spec shape {spec.shape}"
            )
        field[spec.start_row : spec.end_row] = data
        covered[spec.start_row : spec.end_row] = True
    if not covered.all():
        raise ValueError("blocks do not cover the whole field")
    return field
