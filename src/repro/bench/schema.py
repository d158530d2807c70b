"""Versioned JSON document format for benchmark reports.

A report serializes to a single self-describing document::

    {
      "schema": "repro.bench",
      "version": 1,
      "name": "quick",
      "created_unix": 1738000000.0,
      "quick": true,
      "environment": {"python": ..., "platform": ..., "cpu_count": ...,
                      "git_sha": ..., "repro_version": ...},
      "cases": [
        {"name": "fig5.buffer_plan", "group": "figures", "status": "ok",
         "warmup": 1, "repeats": 3, "samples_s": [...],
         "stats": {"min_s": ..., "max_s": ..., "mean_s": ...,
                   "median_s": ..., "stdev_s": ..., "iqr_s": ...,
                   "outliers": [...]},
         "error": null},
        ...
      ]
    }

Documents are written to ``BENCH_<name>.json`` at the repo root by
``repro bench run`` and read back by the same-run ratio gates in CI.
:func:`validate_document` checks structure exhaustively and raises
:class:`SchemaError` listing *every* problem found, so a tampered or
truncated report fails loudly rather than gating on garbage.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.durability.atomic import atomic_write_text

from .harness import BenchResult
from .runner import BenchReport

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SchemaError",
    "report_to_document",
    "result_to_dict",
    "validate_document",
    "write_document",
    "load_document",
]

SCHEMA_NAME = "repro.bench"
SCHEMA_VERSION = 1

_STATUSES = ("ok", "failed", "timeout")

_ENVIRONMENT_KEYS = (
    "python",
    "platform",
    "cpu_count",
    "git_sha",
    "repro_version",
)

_STATS_KEYS = ("min_s", "max_s", "mean_s", "median_s", "stdev_s", "iqr_s")


class SchemaError(ValueError):
    """A document failed validation; ``problems`` lists every issue."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__(
            "invalid bench document: " + "; ".join(self.problems)
        )


def result_to_dict(result: BenchResult) -> dict:
    """One case's JSON form."""
    stats = None
    if result.stats is not None:
        stats = {
            "min_s": result.stats.min_s,
            "max_s": result.stats.max_s,
            "mean_s": result.stats.mean_s,
            "median_s": result.stats.median_s,
            "stdev_s": result.stats.stdev_s,
            "iqr_s": result.stats.iqr_s,
            "outliers": list(result.stats.outliers),
        }
    return {
        "name": result.name,
        "group": result.group,
        "status": result.status,
        "warmup": result.warmup,
        "repeats": result.repeats,
        "samples_s": [s.seconds for s in result.samples],
        "stats": stats,
        "error": result.error,
    }


def report_to_document(report: BenchReport, name: str) -> dict:
    """The full versioned document for one suite run."""
    return {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "name": name,
        "created_unix": time.time(),
        "quick": report.quick,
        "environment": dict(report.environment),
        "cases": [result_to_dict(r) for r in report.results],
    }


def _check_number(doc: dict, key: str, problems: list[str], where: str) -> None:
    value = doc.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        problems.append(f"{where}.{key} must be a number, got {value!r}")


def validate_document(doc: object) -> dict:
    """Validate structure; return the document or raise :class:`SchemaError`."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise SchemaError([f"document must be an object, got {type(doc).__name__}"])
    if doc.get("schema") != SCHEMA_NAME:
        problems.append(f"schema must be {SCHEMA_NAME!r}, got {doc.get('schema')!r}")
    if doc.get("version") != SCHEMA_VERSION:
        problems.append(
            f"version must be {SCHEMA_VERSION}, got {doc.get('version')!r}"
        )
    if not isinstance(doc.get("name"), str) or not doc.get("name"):
        problems.append("name must be a non-empty string")
    _check_number(doc, "created_unix", problems, "document")
    if not isinstance(doc.get("quick"), bool):
        problems.append("quick must be a boolean")
    environment = doc.get("environment")
    if not isinstance(environment, dict):
        problems.append("environment must be an object")
    else:
        for key in _ENVIRONMENT_KEYS:
            if key not in environment:
                problems.append(f"environment.{key} is missing")
    cases = doc.get("cases")
    if not isinstance(cases, list):
        problems.append("cases must be a list")
        cases = []
    seen: set[str] = set()
    for i, case in enumerate(cases):
        where = f"cases[{i}]"
        if not isinstance(case, dict):
            problems.append(f"{where} must be an object")
            continue
        name = case.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}.name must be a non-empty string")
        elif name in seen:
            problems.append(f"{where}.name {name!r} is duplicated")
        else:
            seen.add(name)
        if not isinstance(case.get("group"), str):
            problems.append(f"{where}.group must be a string")
        status = case.get("status")
        if status not in _STATUSES:
            problems.append(
                f"{where}.status must be one of {_STATUSES}, got {status!r}"
            )
        for key in ("warmup", "repeats"):
            if not isinstance(case.get(key), int):
                problems.append(f"{where}.{key} must be an integer")
        samples = case.get("samples_s")
        if not isinstance(samples, list) or any(
            not isinstance(s, (int, float)) or isinstance(s, bool)
            for s in samples
        ):
            problems.append(f"{where}.samples_s must be a list of numbers")
        stats = case.get("stats")
        if status == "ok":
            if not isinstance(stats, dict):
                problems.append(f"{where}.stats is required when status is ok")
            else:
                for key in _STATS_KEYS:
                    _check_number(stats, key, problems, f"{where}.stats")
                if not isinstance(stats.get("outliers"), list):
                    problems.append(f"{where}.stats.outliers must be a list")
        elif stats is not None and not isinstance(stats, dict):
            problems.append(f"{where}.stats must be an object or null")
        error = case.get("error")
        if error is not None and not isinstance(error, str):
            problems.append(f"{where}.error must be a string or null")
        if status != "ok" and not error:
            problems.append(f"{where}.error is required when status is {status}")
    if problems:
        raise SchemaError(problems)
    return doc


def write_document(doc: dict, path: str | Path) -> None:
    """Validate, then atomically publish, the document as pretty JSON.

    An invalid document or a failed write leaves ``path`` as it was.
    """
    validate_document(doc)
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_document(path: str | Path) -> dict:
    """Read and validate a ``BENCH_*.json`` document."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError([f"{path} is not valid JSON: {exc}"]) from exc
    return validate_document(doc)
