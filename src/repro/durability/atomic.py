"""Atomic, durable file replacement: temp file + fsync + rename.

Every artifact a crash must never tear goes through :class:`DurableFile`
(campaign reports, the service heartbeat) or, for shared containers and
so snapshots, through the same protocol inside the container writer:
the content is written to a same-directory temp file, flushed and
fsynced, then :func:`os.replace`-d over the final name, and the parent
directory is fsynced so the rename itself is durable.  A reader at the
final path therefore sees either the previous complete file or the new
complete file, never a prefix.  A crash mid-write leaves only a stale
``*.tmp.*`` file, which :func:`find_stale_temps` surfaces and
``repro verify`` reports.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from typing import Callable

__all__ = [
    "DurableFile",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_dir",
    "find_stale_temps",
    "temp_path_for",
]

_TEMP_MARKER = ".tmp."
_counter = itertools.count()


def temp_path_for(path: str | os.PathLike) -> str:
    """A unique same-directory temp name for an atomic replace of ``path``."""
    return f"{os.fspath(path)}{_TEMP_MARKER}{os.getpid()}.{next(_counter)}"


def fsync_dir(directory: str | os.PathLike) -> None:
    """fsync a directory so a completed rename survives power loss."""
    fd = os.open(os.fspath(directory) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def find_stale_temps(directory: str | os.PathLike) -> list[str]:
    """Leftover ``*.tmp.*`` files from crashed writers in ``directory``."""
    directory = os.fspath(directory) or "."
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if _TEMP_MARKER in name
    )


class DurableFile:
    """Context manager writing ``path`` atomically and durably.

    ::

        with DurableFile("report.json") as fh:
            fh.write(payload)
        # report.json now exists, complete, and fsynced — or, on any
        # error/crash, does not exist (or still holds its old content).

    ``before_commit`` (when given) runs after the temp file is fully
    written and fsynced but before the rename — the window the chaos
    harness kills a process in to prove no torn final file can appear.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        mode: str = "wb",
        fsync: bool = True,
        encoding: str | None = None,
        before_commit: Callable[[], None] | None = None,
    ) -> None:
        if "r" in mode or "a" in mode or "+" in mode:
            raise ValueError(
                f"DurableFile only replaces whole files, got mode {mode!r}"
            )
        self._path = os.fspath(path)
        self._temp = temp_path_for(path)
        self._fsync = fsync
        self._before_commit = before_commit
        if encoding is None and "b" not in mode:
            encoding = "utf-8"
        self._file = open(self._temp, mode, encoding=encoding)

    @property
    def path(self) -> str:
        return self._path

    def __enter__(self):
        return self._file

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._discard()
            return
        self.commit()

    def _discard(self) -> None:
        with contextlib.suppress(OSError):  # close() re-tries a failed flush
            self._file.close()
        with contextlib.suppress(OSError):
            os.unlink(self._temp)

    def commit(self) -> None:
        """Flush, fsync, and publish the temp file under the final name.

        A write, fsync or rename that fails removes the temp file before
        re-raising, so only a *crash* leaves a stale ``*.tmp.*`` behind.
        """
        try:
            self._file.flush()
            if self._fsync:
                os.fsync(self._file.fileno())
            self._file.close()
            if self._before_commit is not None:
                self._before_commit()
            os.replace(self._temp, self._path)
        except OSError:
            self._discard()
            raise
        if self._fsync:
            fsync_dir(os.path.dirname(self._path))


def atomic_write_bytes(
    path: str | os.PathLike, payload: bytes, fsync: bool = True
) -> None:
    """Atomically replace ``path`` with ``payload``."""
    with DurableFile(path, "wb", fsync=fsync) as fh:
        fh.write(payload)


def atomic_write_text(
    path: str | os.PathLike, text: str, fsync: bool = True
) -> None:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    with DurableFile(path, "w", fsync=fsync) as fh:
        fh.write(text)
