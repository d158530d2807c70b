"""Iteration interval patterns: where the immovable tasks sit.

Generates the obstacle layouts (compute tasks on the main thread, core
communication/I/O tasks on the background thread) that define the
scheduler's playing field.  Patterns are deterministic per seed so
consecutive iterations look alike — the similarity assumption the paper's
history-based prediction rests on — with shape knobs for how busy and how
fragmented each thread is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.model import Interval

__all__ = [
    "IterationProfile",
    "generate_profile",
    "jitter_profile",
    "profile_to_json",
    "profile_from_json",
]


@dataclass(frozen=True)
class IterationProfile:
    """One iteration's obstacle layout, relative to the iteration start."""

    length: float
    main_obstacles: tuple[Interval, ...]
    background_obstacles: tuple[Interval, ...]

    def busy_fraction_main(self) -> float:
        busy = sum(o.duration for o in self.main_obstacles)
        return busy / self.length if self.length else 0.0

    def busy_fraction_background(self) -> float:
        busy = sum(o.duration for o in self.background_obstacles)
        return busy / self.length if self.length else 0.0


def generate_profile(
    length: float,
    num_main_tasks: int,
    main_busy_fraction: float,
    num_background_tasks: int,
    background_busy_fraction: float,
    rng: np.random.Generator,
    lead_in_fraction: float = 0.02,
) -> IterationProfile:
    """Draw one iteration's obstacle layout.

    Busy time is split into the requested number of tasks with random
    (Dirichlet) proportions; idle time is split into the gaps between
    them, so tasks never touch the iteration's very start (a small lead-in
    gap is kept — in practice the main thread hands off to the GPU before
    idling).
    """
    if not 0.0 <= main_busy_fraction < 1.0:
        raise ValueError("main_busy_fraction must be in [0, 1)")
    if not 0.0 <= background_busy_fraction < 1.0:
        raise ValueError("background_busy_fraction must be in [0, 1)")
    main = _layout(
        length, num_main_tasks, main_busy_fraction, rng, lead_in_fraction
    )
    background = _layout(
        length,
        num_background_tasks,
        background_busy_fraction,
        rng,
        lead_in_fraction,
    )
    return IterationProfile(
        length=length,
        main_obstacles=main,
        background_obstacles=background,
    )


def _layout(
    length: float,
    num_tasks: int,
    busy_fraction: float,
    rng: np.random.Generator,
    lead_in_fraction: float,
) -> tuple[Interval, ...]:
    if num_tasks == 0 or busy_fraction == 0.0:
        return ()
    busy_total = length * busy_fraction
    idle_total = length - busy_total
    busy_parts = rng.dirichlet(np.full(num_tasks, 4.0)) * busy_total
    # num_tasks + 1 gaps; the first gets at least the lead-in.
    gap_parts = rng.dirichlet(np.full(num_tasks + 1, 2.0)) * idle_total
    lead_in = min(idle_total * 0.5, length * lead_in_fraction)
    if gap_parts[0] < lead_in:
        deficit = lead_in - gap_parts[0]
        gap_parts[0] = lead_in
        gap_parts[1:] -= deficit / num_tasks
        gap_parts = np.maximum(gap_parts, 0.0)
    # Python floats, not np.float64: every jittered profile and every
    # placement on these endpoints inherits the type (the sums are the
    # same IEEE doubles either way).
    intervals = []
    cursor = 0.0
    for gap, busy in zip(gap_parts.tolist(), busy_parts.tolist()):
        cursor += gap
        start = cursor
        cursor += busy
        intervals.append(Interval(start, cursor))
    return tuple(intervals)


def profile_to_json(profile: IterationProfile) -> str:
    """Serialize a profile so measured traces can be stored and shared."""
    import json

    return json.dumps(
        {
            "length": profile.length,
            "main_obstacles": [
                [o.start, o.end] for o in profile.main_obstacles
            ],
            "background_obstacles": [
                [o.start, o.end] for o in profile.background_obstacles
            ],
        }
    )


def profile_from_json(text: str) -> IterationProfile:
    """Load an :class:`IterationProfile` from JSON — the hook for driving
    the framework with *measured* application traces instead of the
    synthetic generators (profile your app once, replay it here)."""
    import json

    raw = json.loads(text)
    return IterationProfile(
        length=raw["length"],
        main_obstacles=tuple(
            Interval(a, b) for a, b in raw["main_obstacles"]
        ),
        background_obstacles=tuple(
            Interval(a, b) for a, b in raw["background_obstacles"]
        ),
    )


def jitter_profile(
    profile: IterationProfile,
    rng: np.random.Generator,
    sigma_fraction: float = 0.01,
) -> IterationProfile:
    """A slightly perturbed copy of a profile (iteration-to-iteration
    variation, per Section 5.4.1's sigma = 0.01 x T_n)."""
    sigma = sigma_fraction * profile.length

    def perturb(obstacles: tuple[Interval, ...]) -> tuple[Interval, ...]:
        out = []
        cursor = 0.0
        for obs in obstacles:
            start = max(cursor, obs.start + float(rng.normal(0, sigma)))
            end = max(
                start + obs.duration * 0.5,
                obs.end + float(rng.normal(0, sigma)),
            )
            out.append(Interval(start, end))
            cursor = end
        return tuple(out)

    return IterationProfile(
        length=max(
            profile.length + float(rng.normal(0, sigma)),
            profile.length * 0.5,
        ),
        main_obstacles=perturb(profile.main_obstacles),
        background_obstacles=perturb(profile.background_obstacles),
    )
