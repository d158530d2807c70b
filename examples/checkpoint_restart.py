#!/usr/bin/env python
"""Checkpoint/restart with compressed snapshots.

A toy iterative "simulation" (a diffusing field) checkpoints its state
with :func:`repro.framework.save_snapshot` into one shared file every
iteration.  The run is then "crashed" and restarted from the last
checkpoint; the restarted trajectory is verified to track the original
within the accumulated error bound.

Run:  python examples/checkpoint_restart.py
"""

import os
import tempfile

import numpy as np
from scipy import ndimage

from repro.compression import max_abs_error
from repro.framework import load_snapshot, save_snapshot

SHAPE = (32, 32)
ERROR_BOUND = 1e-4
CRASH_AT = 6
TOTAL = 10


def step(state: np.ndarray) -> np.ndarray:
    """One 'simulation' iteration: diffusion plus a rotating source."""
    diffused = ndimage.uniform_filter(state, size=3, mode="wrap")
    source = np.zeros_like(state)
    source[8, 8] = 1.0
    return 0.98 * diffused + 0.02 * source


def run_with_checkpoints(workdir: str) -> tuple[np.ndarray, str]:
    rng = np.random.default_rng(33)
    state = rng.normal(size=SHAPE)
    last_checkpoint = ""
    for iteration in range(CRASH_AT):
        state = step(state)
        last_checkpoint = os.path.join(workdir, f"ckpt_{iteration:03d}.rpio")
        save_snapshot(
            last_checkpoint,
            {"state": state},
            error_bounds=ERROR_BOUND,
            block_bytes=2048,
        )
    return state, last_checkpoint


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as workdir:
        # --- original run until the "crash" ---------------------------
        state_at_crash, checkpoint = run_with_checkpoints(workdir)
        print(f"crashed after iteration {CRASH_AT - 1}; restarting from "
              f"{os.path.basename(checkpoint)}")

        # --- restart ---------------------------------------------------
        restored = load_snapshot(checkpoint)["state"]
    drift = max_abs_error(state_at_crash, restored)
    print(f"restart state max error vs original: {drift:.2e} "
          f"(bound {ERROR_BOUND:g})")
    assert drift <= ERROR_BOUND * (1 + 1e-9)

    reference = state_at_crash
    resumed = restored
    for _ in range(CRASH_AT, TOTAL):
        reference = step(reference)
        resumed = step(resumed)
    final_drift = max_abs_error(reference, resumed)
    print(f"after {TOTAL - CRASH_AT} more iterations, trajectories "
          f"diverge by {final_drift:.2e} (diffusion contracts errors)")
    assert final_drift <= ERROR_BOUND * 2
    print("checkpoint/restart verified")


if __name__ == "__main__":
    main()
