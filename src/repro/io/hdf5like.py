"""A shared-file container with offset reservation and an overflow region.

This is the repo's stand-in for parallel HDF5 writing to one shared file
(Section 2.1 motivates the single-shared-file pattern).  It reproduces the
mechanics the paper's implementation relies on (Section 4.4):

* **Offset reservation.**  Before compression, every block's offset in
  the shared file is computed from its *predicted* compressed size, so
  processes can write independently without coordination.
* **Overflow region.**  When a block compresses worse than predicted, the
  reserved slot cannot hold it; the excess block is appended to a shared
  overflow region at the end of the file, as an extra (unscheduled) I/O
  task queued after the last planned one.
* **Self-describing footer.**  A JSON footer records every dataset's
  actual location so readers need no external metadata.

Writes go through :func:`os.pwrite`-style positioned I/O so multiple
threads (the async-I/O layer) can write concurrently to one descriptor.

Durability (format v3, magic ``RPIO0003``): the writer builds the
container at a same-directory temp path and only fsyncs + renames it to
the final name at :meth:`close`, so a reader at the final path never
observes a file without its footer.  Every dataset enters through
:meth:`SharedFileWriter.write` / :meth:`~SharedFileWriter.write_unreserved`
and carries a CRC32C, and the footer (the JSON index, deflated) is
covered by a CRC32C in the tail record.  Older containers still read:
``RPIO0002`` (plain JSON footer) and ``RPIO0001`` (zlib CRC-32 entries,
unchecksummed footer).
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import struct
import threading
import zlib
from dataclasses import dataclass

from ..durability.atomic import fsync_dir, temp_path_for
from ..durability.checksum import crc32c

__all__ = [
    "ChecksumMismatchError",
    "DatasetEntry",
    "SharedFileWriter",
    "SharedFileReader",
]

_MAGIC_V1 = b"RPIO0001"
_MAGIC = b"RPIO0003"
_MAGICS = (_MAGIC, b"RPIO0002", _MAGIC_V1)
_FOOTER_STRUCT_V1 = "<Q8s"  # footer length + magic, at the very end
_FOOTER_STRUCT = "<QI8s"  # footer length + footer CRC32C + magic


class ChecksumMismatchError(ValueError):
    """A payload's CRC32C differs from the one declared at compression
    time: the bytes are wrong, so writing them again cannot help."""


@dataclass
class DatasetEntry:
    """Location of one stored dataset (block) in the shared file.

    ``crc32c`` is the Castagnoli CRC of the payload (v2 containers);
    ``crc32`` is the zlib CRC older v1 containers recorded.  Both are
    None only in files from a retired external-write path, whose
    entries this writer never saw; such datasets still read, unverified.
    """

    name: str
    offset: int
    nbytes: int
    reserved: int
    overflowed: bool
    crc32: int | None = None
    crc32c: int | None = None


class SharedFileWriter:
    """Writer for the shared container; thread-safe positioned writes."""

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = os.fspath(path)
        self._data_path = temp_path_for(self._path)
        self._fd = os.open(
            self._data_path, os.O_CREAT | os.O_RDWR | os.O_TRUNC, 0o644
        )
        os.write(self._fd, _MAGIC)
        self._cursor = len(_MAGIC)  # next free reservation offset
        self._entries: dict[str, DatasetEntry] = {}
        self._lock = threading.Lock()
        self._closed = False

    @property
    def path(self) -> str:
        """The final (published) container path."""
        return self._path

    def reserve(self, name: str, predicted_nbytes: int) -> int:
        """Reserve ``predicted_nbytes`` for ``name``; returns its offset."""
        if predicted_nbytes < 0:
            raise ValueError("predicted size must be non-negative")
        with self._lock:
            self._check_open()
            if name in self._entries:
                raise ValueError(f"dataset {name!r} already reserved")
            offset = self._cursor
            self._cursor += predicted_nbytes
            self._entries[name] = DatasetEntry(
                name=name,
                offset=offset,
                nbytes=0,
                reserved=predicted_nbytes,
                overflowed=False,
            )
            return offset

    def write(
        self, name: str, payload: bytes, checksum: int | None = None
    ) -> bool:
        """Write a dataset into its reservation, or overflow if too big.

        Returns True when the payload fit its reservation, False when it
        was appended to the overflow region instead (the caller then
        queues the write as the paper's extra trailing I/O task — timing
        is the caller's concern; the data lands correctly either way).

        ``checksum`` is the payload's CRC32C as computed upstream (at
        compression time); when given, the write re-checks it so a
        payload corrupted between compression and I/O is rejected here
        instead of poisoning the file.
        """
        return self._place(name, payload, checksum, reserved=True)

    def write_unreserved(
        self, name: str, payload: bytes, checksum: int | None = None
    ) -> None:
        """Append a dataset that never had a reservation."""
        self._place(name, payload, checksum, reserved=False)

    def _place(
        self,
        name: str,
        payload: bytes,
        checksum: int | None,
        *,
        reserved: bool,
    ) -> bool:
        """Verify, checksum and position one payload.

        The only way bytes enter a container: an unreserved dataset is
        a zero-byte reservation made on the spot, so it lands at the
        cursor exactly like an overflowing one (without the flag).
        """
        actual = crc32c(payload)
        if checksum is not None and checksum != actual:
            raise ChecksumMismatchError(
                f"dataset {name!r}: payload failed its end-to-end "
                f"checksum before write (declared {checksum:#010x}, "
                f"computed {actual:#010x})"
            )
        with self._lock:
            self._check_open()
            entry = self._entries.get(name)
            if not reserved:
                if entry is not None:
                    raise ValueError(f"dataset {name!r} already exists")
                entry = self._entries[name] = DatasetEntry(
                    name=name,
                    offset=self._cursor,
                    nbytes=0,
                    reserved=0,
                    overflowed=False,
                )
            elif entry is None:
                raise KeyError(f"dataset {name!r} was never reserved")
            elif entry.nbytes:
                raise ValueError(f"dataset {name!r} already written")
            fits = len(payload) <= entry.reserved
            if not fits:
                entry.offset = self._cursor
                self._cursor += len(payload)
            entry.nbytes = len(payload)
            entry.overflowed = reserved and not fits
            entry.crc32c = actual
            offset = entry.offset
        os.pwrite(self._fd, payload, offset)
        return fits

    @property
    def overflow_bytes(self) -> int:
        with self._lock:
            return sum(
                e.nbytes for e in self._entries.values() if e.overflowed
            )

    def close(self) -> None:
        """Write the footer index, fsync, and publish under the final name.

        A failed step removes the temp file and re-raises; the writer is
        closed all the same, so :meth:`abort` after it is a no-op."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                try:
                    self._write_footer()
                finally:
                    os.close(self._fd)
                os.replace(self._data_path, self._path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(self._data_path)
                raise
            fsync_dir(os.path.dirname(self._path))

    def _write_footer(self) -> None:
        index = {
            name: {
                "offset": e.offset,
                "nbytes": e.nbytes,
                "reserved": e.reserved,
                "overflowed": e.overflowed,
                "crc32c": e.crc32c,
            }
            for name, e in self._entries.items()
        }
        footer = zlib.compress(json.dumps(index).encode())
        os.pwrite(self._fd, footer, self._cursor)
        tail = struct.pack(_FOOTER_STRUCT, len(footer), crc32c(footer), _MAGIC)
        os.pwrite(self._fd, tail, self._cursor + len(footer))
        os.fsync(self._fd)

    def abort(self) -> None:
        """Drop the in-progress temp file without publishing anything."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            os.close(self._fd)
            with contextlib.suppress(OSError):
                os.unlink(self._data_path)

    def __enter__(self) -> "SharedFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("writer is closed")


class SharedFileReader:
    """Reader for containers produced by :class:`SharedFileWriter`."""

    def __init__(self, path: str | os.PathLike) -> None:
        self._path = os.fspath(path)
        self._fd = os.open(self._path, os.O_RDONLY)
        try:
            self.entries = self._load_index()
        except Exception:
            os.close(self._fd)
            raise

    def _load_index(self) -> dict[str, DatasetEntry]:
        info = os.fstat(self._fd)
        if not stat.S_ISREG(info.st_mode):  # a directory opens, then EISDIR
            raise ValueError(f"{self._path}: not a shared container file")
        size = info.st_size
        magic = os.pread(self._fd, 8, max(size - 8, 0))
        tail_struct = (
            _FOOTER_STRUCT_V1 if magic == _MAGIC_V1 else _FOOTER_STRUCT
        )
        tail_size = struct.calcsize(tail_struct)
        if size < len(_MAGIC) + tail_size:
            raise ValueError(
                f"{self._path}: file too small to be a shared container"
            )
        if magic not in _MAGICS or os.pread(self._fd, 8, 0) != magic:
            raise ValueError(f"{self._path}: not a shared container file")
        tail = struct.unpack(
            tail_struct, os.pread(self._fd, tail_size, size - tail_size)
        )
        footer_len = tail[0]
        footer_crc = None if magic == _MAGIC_V1 else tail[1]
        if footer_len > size - tail_size - len(_MAGIC):
            raise ValueError(
                f"{self._path}: footer length {footer_len} exceeds "
                f"file size {size}"
            )
        footer = os.pread(
            self._fd, footer_len, size - tail_size - footer_len
        )
        if footer_crc is not None:
            actual = crc32c(footer)
            if actual != footer_crc:
                raise ValueError(
                    f"{self._path}: container footer failed its checksum "
                    f"(stored {footer_crc:#010x}, read {actual:#010x})"
                )
        try:
            if magic == _MAGIC:
                footer = zlib.decompress(footer)
            raw = json.loads(footer.decode())
            entries = {
                name: DatasetEntry(name=name, **info)
                for name, info in raw.items()
            }
            for entry in entries.values():
                end = entry.offset + entry.nbytes
                if not 0 <= entry.offset <= end <= size:
                    raise ValueError(f"{entry.name!r} lies outside the file")
        except (zlib.error, ValueError, TypeError, AttributeError) as exc:
            # ValueError covers UnicodeDecodeError and JSONDecodeError;
            # the last two a footer that parses to the wrong shape.
            raise ValueError(
                f"{self._path}: container footer is not a valid index: {exc}"
            ) from exc
        return entries

    def names(self) -> list[str]:
        return sorted(self.entries)

    def read(self, name: str, verify: bool = True) -> bytes:
        """Read one dataset; with ``verify`` (default) the stored CRC,
        when present, is checked and corruption raises ``ValueError``."""
        entry = self.entries[name]
        payload = os.pread(self._fd, entry.nbytes, entry.offset)
        if len(payload) != entry.nbytes:
            raise ValueError(
                f"dataset {name!r} truncated: footer declares "
                f"{entry.nbytes} bytes at offset {entry.offset}, "
                f"file holds {len(payload)}"
            )
        if verify and entry.crc32c is not None:
            actual = crc32c(payload)
            if actual != entry.crc32c:
                raise ValueError(
                    f"dataset {name!r} failed its checksum at offset "
                    f"{entry.offset} (stored {entry.crc32c:#010x}, "
                    f"read {actual:#010x})"
                )
        elif verify and entry.crc32 is not None:
            actual = zlib.crc32(payload)
            if actual != entry.crc32:
                raise ValueError(
                    f"dataset {name!r} failed its checksum at offset "
                    f"{entry.offset} (stored {entry.crc32:#x}, "
                    f"read {actual:#x})"
                )
        return payload

    def close(self) -> None:
        os.close(self._fd)

    def __enter__(self) -> "SharedFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
