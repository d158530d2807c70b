"""CRC32C (Castagnoli) checksums for end-to-end write-path integrity.

Every compressed block and snapshot section gets a CRC32C computed at
compression time and verified on load, so a bit flip anywhere between
the compressor's output buffer and a reader years later is detected and
named.  CRC32C is the polynomial used by iSCSI, ext4 metadata, and most
object stores — chosen here over zlib's CRC-32 so stored checksums are
directly comparable with external tooling (``crc32c`` on most systems).

Three entry points:

* :func:`crc32c` — checksum of a bytes-like object, chainable through a
  running ``value`` exactly like :func:`zlib.crc32`.
* :func:`crc32c_combine` — CRC of a concatenation from the CRCs of its
  parts (zlib's ``crc32_combine`` for the Castagnoli polynomial); lets
  the compressed-data buffer derive a write-unit checksum from its
  blocks' checksums without touching the payload bytes again.
* :func:`crc32c_hex` — fixed-width hex form used in journal records.

The implementation is pure Python + numpy and has no per-byte Python
loop above ``_GATHER_MIN`` bytes.  The CRC register is GF(2)-linear in
the message, so the register an ``_L``-byte chunk leaves behind is the
XOR of one table entry per byte: ``_W[j][b]`` is the contribution of
byte ``b`` followed by ``_L - 1 - j`` zero bytes.  One fancy-index
gather plus ``bitwise_xor.reduce`` therefore checksums every chunk of a
buffer at once; adjacent chunk registers are then folded pairwise, each
level one more gather through a zero-advance operator kept as byte
tables (``_ADVANCE``, which :func:`crc32c_combine` composes too).  The
running ``value`` is XORed into the first four message bytes, a ragged
first chunk is front-padded with zero bytes (they leave a zero register
at zero, which is what offsetting into ``_W`` amounts to), and inputs
are walked in ``_SLAB``-byte slabs chained through the register, so the
temporaries stay below 4 MiB whatever the input size.  The table-driven
bytewise loop remains as the test oracle and as the path for inputs too
short to amortise a numpy call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["crc32c", "crc32c_combine", "crc32c_hex"]

# Castagnoli polynomial, reflected representation.
_POLY = 0x82F63B78

# Byte positions per gathered chunk.  256 positions x 256 byte values is
# exactly the range of a uint16 gather index (2 B of index per input byte).
_L = 256
# Bytes per slab: bounds the temporaries at ~15 B per slab byte.
_SLAB = 1 << 18
# Measured crossover: below this the bytewise loop beats the ~7 us of
# numpy calls a one-chunk gather costs.
_GATHER_MIN = 64

# Little-endian on every host, so a uint8 view of a register array
# yields its bytes low-order first.
_U32 = np.dtype("<u4")


def _build_table() -> list[int]:
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _build_table()
_TABLE_NP = np.array(_TABLE, dtype=_U32)


def _bytewise(data, state: int) -> int:
    """Advance the internal (pre-inverted) CRC state over ``data``."""
    table = _TABLE
    for byte in data:
        state = table[(state ^ byte) & 0xFF] ^ (state >> 8)
    return state


# ----------------------------------------------------------------------
# The gather kernel.  A table is a flat (rows x 256) uint32 array; row j
# maps the byte in column j of the input to its register contribution.
# ----------------------------------------------------------------------
_ROW_OFFSETS = np.arange(_L, dtype=np.uint16) << 8


def _gather(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """XOR of ``table[j][rows[i, j]]`` over ``j``, for every row ``i``."""
    index = rows + _ROW_OFFSETS[: rows.shape[1]]
    folded = np.bitwise_xor.reduce(table.take(index), axis=1)
    return folded.astype(_U32, copy=False)


def _position_table() -> np.ndarray:
    """``_W[j][b]``: byte ``b``, then ``_L - 1 - j`` zero bytes."""
    table = np.empty((_L, 256), dtype=_U32)
    cur = table[_L - 1] = _TABLE_NP
    for j in range(_L - 2, -1, -1):
        cur = table[j] = _TABLE_NP[cur & 0xFF] ^ (cur >> 8)
    return table.ravel()


def _advance_tables(count: int) -> list[np.ndarray]:
    """Zero-advance operators for ``2**p`` bytes, ``p < count``.

    Each is an 8-row gather table over the bytes of an adjacent register
    pair ``(left, right)``: rows 0-3 advance the bytes of ``left`` over
    ``2**p`` zero bytes, rows 4-7 pass ``right`` through, so one gather
    yields the register of the concatenation.  Squaring an operator is
    a gather of its own advancing rows through itself.
    """
    shifts = 8 * np.arange(4, dtype=_U32)[:, None]
    identity = (np.arange(256, dtype=_U32) << shifts).astype(_U32).ravel()
    # One zero byte: the low byte goes through the CRC table, the upper
    # three move down one place.
    advancing = np.concatenate((_TABLE_NP, identity[:768]))
    tables = []
    for _ in range(count):
        table = np.concatenate((advancing, identity))
        tables.append(table)
        advancing = _gather(table, advancing.view(np.uint8).reshape(-1, 4))
    return tables


_W = _position_table()
# Powers of two compose any length below 2**64 from its set bits; built
# once, never evicted, shared by the kernel's fold and crc32c_combine.
_ADVANCE = _advance_tables(64)
_ZERO_REGISTER = np.zeros(1, dtype=_U32)


def _gather_slab(data: np.ndarray, state: int) -> int:
    """Advance ``state`` over ``data`` (4 <= size <= ``_SLAB`` bytes)."""
    pad = -data.size % _L
    padded = np.zeros(pad + data.size, dtype=np.uint8)
    padded[pad:] = data
    padded[pad : pad + 4] ^= np.frombuffer(
        state.to_bytes(4, "little"), dtype=np.uint8
    )
    registers = _gather(_W, padded.reshape(-1, _L))
    span = _L.bit_length() - 1  # log2 of the bytes one register covers
    while registers.size > 1:
        if registers.size & 1:  # a zero chunk in front changes nothing
            registers = np.concatenate((_ZERO_REGISTER, registers))
        pairs = registers.view(np.uint8).reshape(-1, 8)
        registers = _gather(_ADVANCE[span], pairs)
        span += 1
    return int(registers[0])


def crc32c_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC32C of ``A + B`` given ``crc1 = crc32c(A)``, ``crc2 = crc32c(B)``.

    ``len2`` is ``len(B)`` in bytes.  One four-lookup operator
    application per set bit of ``len2``; never touches the data.
    """
    if len2 < 0:
        raise ValueError(f"len2 must be non-negative, got {len2}")
    if len2.bit_length() > len(_ADVANCE):
        raise ValueError(f"len2 must be below 2**{len(_ADVANCE)}, got {len2}")
    crc = crc1 & 0xFFFFFFFF
    power = 0
    while len2:
        if len2 & 1:
            lookup = _ADVANCE[power].item
            crc = (
                lookup(crc & 0xFF)
                ^ lookup(256 | ((crc >> 8) & 0xFF))
                ^ lookup(512 | ((crc >> 16) & 0xFF))
                ^ lookup(768 | (crc >> 24))
            )
        len2 >>= 1
        power += 1
    return crc ^ (crc2 & 0xFFFFFFFF)


def crc32c(data, value: int = 0) -> int:
    """CRC32C of ``data``; pass a previous result as ``value`` to chain.

    Accepts any bytes-like object (``bytes``, ``bytearray``,
    ``memoryview``, contiguous numpy arrays).  ``crc32c(b"") == 0`` and
    ``crc32c(b, crc32c(a)) == crc32c(a + b)``, mirroring
    :func:`zlib.crc32`.
    """
    buf = memoryview(data)
    if buf.ndim != 1 or buf.itemsize != 1:
        buf = buf.cast("B")
    arr = np.frombuffer(buf if buf.contiguous else buf.tobytes(), np.uint8)
    state = (value & 0xFFFFFFFF) ^ 0xFFFFFFFF
    for start in range(0, arr.size, _SLAB):
        slab = arr[start : start + _SLAB]
        if slab.size < _GATHER_MIN:
            state = _bytewise(slab.tobytes(), state)
        else:
            state = _gather_slab(slab, state)
    return state ^ 0xFFFFFFFF


def crc32c_hex(data, value: int = 0) -> str:
    """``crc32c`` as a fixed-width hex string (journal record form)."""
    return f"{crc32c(data, value):08x}"
