"""Multi-file (subfiling) storage — the paper's Section 6 future work.

One shared file minimizes metadata but serializes some filesystem-level
locking; HDF5's subfiling splits a logical file across several physical
subfiles (the paper cites runs with up to 4,096 processes per shared
file, and names multi-file support as future work).  This module provides
that layout with the same reserve/write/read interface as
:mod:`repro.io.hdf5like`:

* datasets are assigned to subfiles round-robin at reservation time;
* each subfile is an ordinary shared container;
* a JSON index file maps dataset -> subfile so readers stay one-hop.
"""

from __future__ import annotations

import json
import os

from ..durability.atomic import DurableFile
from .hdf5like import SharedFileReader, SharedFileWriter

__all__ = ["SubfileWriter", "SubfileReader"]

_INDEX_NAME = "index.json"
_SUBFILE_PATTERN = "subfile_{:04d}.rpio"


class SubfileWriter:
    """Writer spreading datasets across ``num_subfiles`` containers."""

    def __init__(self, directory, num_subfiles: int = 4) -> None:
        if num_subfiles < 1:
            raise ValueError("num_subfiles must be >= 1")
        self._directory = os.fspath(directory)
        os.makedirs(self._directory, exist_ok=True)
        self._writers = [
            SharedFileWriter(
                os.path.join(
                    self._directory, _SUBFILE_PATTERN.format(i)
                )
            )
            for i in range(num_subfiles)
        ]
        self._assignment: dict[str, int] = {}
        self._next = 0
        self._closed = False

    @property
    def num_subfiles(self) -> int:
        return len(self._writers)

    def reserve(self, name: str, predicted_nbytes: int) -> int:
        """Assign ``name`` to a subfile and reserve space there."""
        if name in self._assignment:
            raise ValueError(f"dataset {name!r} already reserved")
        subfile = self._next
        self._next = (self._next + 1) % len(self._writers)
        self._assignment[name] = subfile
        return self._writers[subfile].reserve(name, predicted_nbytes)

    def write(
        self, name: str, payload: bytes, checksum: int | None = None
    ) -> bool:
        subfile = self._assignment.get(name)
        if subfile is None:
            raise KeyError(f"dataset {name!r} was never reserved")
        return self._writers[subfile].write(name, payload, checksum=checksum)

    def write_unreserved(
        self, name: str, payload: bytes, checksum: int | None = None
    ) -> None:
        if name in self._assignment:
            raise ValueError(f"dataset {name!r} already exists")
        subfile = self._next
        self._next = (self._next + 1) % len(self._writers)
        self._assignment[name] = subfile
        self._writers[subfile].write_unreserved(
            name, payload, checksum=checksum
        )

    def close(self) -> None:
        if self._closed:
            return
        for writer in self._writers:
            writer.close()
        # The index is the directory's commit point: written atomically
        # last, so a crash mid-dump leaves no readable-but-torn layout.
        index_path = os.path.join(self._directory, _INDEX_NAME)
        with DurableFile(index_path, "w") as fh:
            json.dump(
                {
                    "num_subfiles": len(self._writers),
                    "datasets": self._assignment,
                },
                fh,
            )
        self._closed = True

    def abort(self) -> None:
        """Drop every in-progress subfile; publish no index."""
        if self._closed:
            return
        for writer in self._writers:
            writer.abort()
        self._closed = True

    def __enter__(self) -> "SubfileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


class SubfileReader:
    """Reader resolving datasets through the subfiling index."""

    def __init__(self, directory) -> None:
        self._directory = os.fspath(directory)
        with open(os.path.join(self._directory, _INDEX_NAME), "rb") as fh:
            blob = fh.read()
        self._readers: list[SharedFileReader] = []
        try:
            index = json.loads(blob)
            for i in range(index["num_subfiles"]):
                name = os.path.join(directory, _SUBFILE_PATTERN.format(i))
                self._readers.append(SharedFileReader(name))
            self._assignment: dict[str, int] = index["datasets"]
            # Index and subfiles must agree on every dataset's home.
            self.entries = {
                name: self._readers[subfile].entries[name]
                for name, subfile in self._assignment.items()
            }
        except (
            AttributeError, FileNotFoundError, LookupError, TypeError,
            ValueError,
        ) as exc:
            self.close()
            raise ValueError(
                f"{self._directory}: corrupt subfiled layout: {exc!r}"
            ) from exc

    def names(self) -> list[str]:
        return sorted(self._assignment)

    def read(self, name: str, verify: bool = True) -> bytes:
        subfile = self._assignment.get(name)
        if subfile is None:
            raise KeyError(f"dataset {name!r} not in index")
        return self._readers[subfile].read(name, verify=verify)

    def close(self) -> None:
        for reader in self._readers:
            reader.close()

    def __enter__(self) -> "SubfileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
