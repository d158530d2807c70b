"""Parallel I/O substrate: bandwidth model, simulated filesystem, the
shared-file container with overflow handling, and background-thread
asynchronous writes."""

from .async_io import AsyncWriter, WriteJob
from .filesystem import SimulatedFileSystem
from .hdf5like import DatasetEntry, SharedFileReader, SharedFileWriter
from .throughput import IoThroughputModel

__all__ = [
    "IoThroughputModel",
    "SimulatedFileSystem",
    "SharedFileWriter",
    "SharedFileReader",
    "DatasetEntry",
    "AsyncWriter",
    "WriteJob",
]
