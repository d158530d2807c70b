"""`ProcessPoolEngine`: real multi-process compression + overlapped I/O.

Runs the same modelled control plane as :class:`~repro.engines.sim.
SimulatorEngine` — that is what keeps journal records, reports, and
fault hooks identical across backends — but executes the data plane on
real cores:

* ranks own their data, as MPI ranks do: one task of a
  fork-server-free ``fork`` pool generates a rank's fields *and* runs
  quantization + Huffman compression over them, so field bytes never
  leave the worker and no stage of a dump is serial in the parent;
* the parent only supervises (a bounded window of in-flight tasks,
  deadlines, retries) and streams finished ranks' CRC32C-stamped
  payloads straight into the wall-clock
  :class:`~repro.io.async_io.AsyncWriter`, so compute (field
  generation), compression, and I/O genuinely overlap — the paper's
  concealment pipeline, for real.

Unlike the simulator engine, the real data plane is always on here: a
process engine with nothing to execute would be pointless.  Without an
explicit ``data_dir`` the containers go to a temporary directory that
``finalize()`` removes.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile

from .base import register_engine
from .dataplane import PoolDataPlane
from .sim import SimulatorEngine
from .spec import CampaignSpec

__all__ = ["ProcessPoolEngine"]


@register_engine
class ProcessPoolEngine(SimulatorEngine):
    """Worker-process execution: ranks generate and compress in parallel."""

    name = "process"

    def _dataplane_spec(self) -> CampaignSpec:
        """The spec with a data directory guaranteed.

        The temp-directory fallback is allocated once per engine and
        cleaned up by :meth:`finalize`/:meth:`abort`.
        """
        if self.spec.data_dir is not None:
            return self.spec
        if getattr(self, "_tmpdir", None) is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-engine-")
        return dataclasses.replace(self.spec, data_dir=self._tmpdir)

    def _make_dataplane(self) -> PoolDataPlane:
        return PoolDataPlane(
            self._dataplane_spec(),
            tracer=self.tracer,
            injector=self.injector,
            retry=self.retry,
        )

    def prepare(self) -> None:
        """Bring up the worker pool eagerly so startup cost is paid once."""
        super().prepare()
        assert self.dataplane is not None  # data plane is always on here
        self.dataplane.start()

    def finalize(self) -> None:
        """Join the pool, drop any temp dir."""
        super().finalize()
        self._cleanup_tmpdir()

    def abort(self) -> None:
        """Terminate the pool, drop any temp dir."""
        super().abort()
        self._cleanup_tmpdir()

    def _cleanup_tmpdir(self) -> None:
        tmpdir, self._tmpdir = getattr(self, "_tmpdir", None), None
        if tmpdir is not None:
            shutil.rmtree(tmpdir, ignore_errors=True)
