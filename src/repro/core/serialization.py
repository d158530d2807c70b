"""JSON serialization and fingerprints for instances and schedules.

Lets schedules be exported for external timeline viewers, archived next
to experiment results, or shipped between a planner process and an
executor — a small but real interoperability surface, with exact
round-tripping (floats pass through ``json`` unmodified).

:func:`instance_fingerprint` is the canonical content identity of an
instance — the same canonical-JSON + CRC32C signature the write-ahead
journal stamps campaigns with (:mod:`repro.durability.fingerprint`) —
and is what the scheduling service's memo cache keys solutions by.
"""

from __future__ import annotations

import json

from ..durability.fingerprint import fingerprint_json
from .model import Interval, Job, ProblemInstance, Schedule

__all__ = [
    "instance_json_dict",
    "instance_to_json",
    "instance_from_json_dict",
    "instance_from_json",
    "instance_fingerprint",
    "schedule_json_dict",
    "schedule_to_json",
    "schedule_from_json",
]


def _interval(iv: Interval) -> list[float]:
    return [iv.start, iv.end]


def instance_json_dict(instance: ProblemInstance) -> dict:
    """The JSON-safe dict form of a scheduling instance.

    This shape is shared by :func:`instance_to_json`, the service's
    ``/solve`` request body, and :func:`instance_fingerprint` — it *is*
    the instance's canonical serialized identity.
    """
    return {
        "begin": instance.begin,
        "end": instance.end,
        "jobs": [
            {
                "index": j.index,
                "compression_time": j.compression_time,
                "io_time": j.io_time,
                "label": j.label,
                "io_release": j.io_release,
            }
            for j in instance.jobs
        ],
        "main_obstacles": [
            _interval(o) for o in instance.main_obstacles
        ],
        "background_obstacles": [
            _interval(o) for o in instance.background_obstacles
        ],
    }


def instance_to_json(instance: ProblemInstance) -> str:
    """Serialize a scheduling instance to a JSON string."""
    return json.dumps(instance_json_dict(instance))


def instance_fingerprint(instance: ProblemInstance) -> str:
    """Canonical-JSON + CRC32C content fingerprint of an instance.

    Two instances fingerprint equal exactly when their serialized forms
    are byte-identical under canonical JSON, so job order, obstacle
    normalization, and float round-tripping are all accounted for.
    """
    return fingerprint_json(instance_json_dict(instance))


def instance_from_json_dict(raw: dict) -> ProblemInstance:
    """Inverse of :func:`instance_json_dict`.

    Takes the decoded dict (a ``/solve`` request's ``instance`` field)
    without a trip through JSON text; for JSON-typed input the result,
    and any error, is the one :func:`instance_from_json` gives.
    """
    return ProblemInstance(
        begin=raw["begin"],
        end=raw["end"],
        jobs=tuple(Job(**j) for j in raw["jobs"]),
        main_obstacles=tuple(
            Interval(a, b) for a, b in raw["main_obstacles"]
        ),
        background_obstacles=tuple(
            Interval(a, b) for a, b in raw["background_obstacles"]
        ),
    )


def instance_from_json(text: str) -> ProblemInstance:
    """Inverse of :func:`instance_to_json`."""
    return instance_from_json_dict(json.loads(text))


def schedule_json_dict(schedule: Schedule) -> dict:
    """The JSON-safe dict form of a schedule, its instance embedded."""
    return {
        "instance": instance_json_dict(schedule.instance),
        "algorithm": schedule.algorithm,
        "compression": {
            str(j): _interval(iv) for j, iv in schedule.compression.items()
        },
        "io": {str(j): _interval(iv) for j, iv in schedule.io.items()},
    }


def schedule_to_json(schedule: Schedule) -> str:
    """Serialize a schedule (with its instance) to a JSON string."""
    return json.dumps(schedule_json_dict(schedule))


def schedule_from_json(text: str) -> Schedule:
    """Inverse of :func:`schedule_to_json`; the result re-validates."""
    raw = json.loads(text)
    return Schedule(
        instance=instance_from_json_dict(raw["instance"]),
        compression={
            int(j): Interval(a, b)
            for j, (a, b) in raw["compression"].items()
        },
        io={
            int(j): Interval(a, b) for j, (a, b) in raw["io"].items()
        },
        algorithm=raw["algorithm"],
    )
