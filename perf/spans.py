"""The benchmark's own span recorder and the stage table built from it.

The traced run wraps every call into a layer's public functions in a
span: name, start, end, the span that caused it, and the id of the
operation (one dump, one restore, one iteration, one request) it
belongs to.  Spans stay in memory and are written as JSON lines when
the run ends.  A stage's *self time* is its spans' duration minus the
part their children cover, so the stages of one operation plus the
root's own self time (``unattributed``) add up to the operation's wall.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """In-memory spans; nesting is tracked per thread."""

    def __init__(self) -> None:
        #: ``[id, parent, op, name, t0, t1]`` rows.
        self.rows: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        row = [
            0,
            None if parent is None else parent[0],
            op if op is not None or parent is None else parent[2],
            name,
            0.0,
            0.0,
        ]
        with self._lock:
            row[0] = len(self.rows)
            self.rows.append(row)
        stack.append(row)
        row[4] = time.perf_counter()
        try:
            yield row
        finally:
            row[5] = time.perf_counter()
            stack.pop()

    def add(self, name: str, parent: list, t0: float, t1: float) -> None:
        """Attach a child whose interval was measured by someone else
        (the service reports queue wait and solve time in its reply)."""
        with self._lock:
            self.rows.append(
                [len(self.rows), parent[0], parent[2], name, t0, t1]
            )

    def write_jsonl(self, path: Path, workload: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.rows:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "workload": workload,
                            "op": op,
                            "name": name,
                            "t0": t0,
                            "t1": t1,
                        }
                    )
                    + "\n"
                )


class StageTable:
    """Self time per stage and operation, folded from recorded spans."""

    def __init__(self, recorder: SpanRecorder, root: str) -> None:
        rows = recorder.rows
        covered: dict[int, float] = defaultdict(float)
        for _, parent, _, _, t0, t1 in rows:
            if parent is not None:
                covered[parent] += t1 - t0
        #: op id -> root wall; op id -> stage -> self seconds.
        self.walls: dict[int, float] = {}
        self.per_op: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.calls: dict[str, int] = defaultdict(int)
        for sid, parent, op, name, t0, t1 in rows:
            self_s = (t1 - t0) - covered[sid]
            if name == root and parent is None:
                self.walls[op] = t1 - t0
                self.per_op[op]["unattributed"] += self_s
            else:
                self.per_op[op][name] += self_s
                self.calls[name] += 1

    @property
    def ops(self) -> int:
        return len(self.walls)

    @property
    def total_wall(self) -> float:
        return sum(self.walls.values())

    def total(self, stage: str) -> float:
        return sum(stages.get(stage, 0.0) for stages in self.per_op.values())

    def stages(self) -> list[str]:
        names = {n for stages in self.per_op.values() for n in stages}
        names.discard("unattributed")
        return sorted(names, key=self.total, reverse=True)

    def per_op_values(self, stage: str) -> list[float]:
        """The stage's self seconds in each recorded operation."""
        return [
            self.per_op[op].get(stage, 0.0) for op in sorted(self.walls)
        ]

    @property
    def unattributed_frac(self) -> float:
        return self.total("unattributed") / self.total_wall

    def stage_metrics(self) -> dict[str, float]:
        """``<stage>_s``: median self seconds per operation."""
        return {
            f"{stage}_s": statistics.median(self.per_op_values(stage))
            for stage in self.stages()
        }

    def trace_metrics(self, untraced_p50_s: float) -> dict[str, float]:
        """The ``trace.*`` metrics every traced run reports."""
        traced_p50_s = statistics.median(self.walls.values())
        return {
            "trace.unattributed_frac": self.unattributed_frac,
            "trace.untraced_op_p50_ms": 1e3 * untraced_p50_s,
            "trace.overhead_frac": traced_p50_s / untraced_p50_s - 1.0,
        }

    def format(self, title: str) -> str:
        """Mean seconds per operation; rows + unattributed = wall."""
        n = max(1, self.ops)
        lines = [
            f"stage table: {title} ({self.ops} ops, mean per op)",
            f"  {'stage':<28}{'self s':>10}{'share':>8}{'calls/op':>10}",
        ]
        for stage in self.stages() + ["unattributed"]:
            total = self.total(stage)
            lines.append(
                f"  {stage:<28}{total / n:>10.4f}"
                f"{total / self.total_wall:>8.1%}"
                f"{self.calls.get(stage, 0) / n:>10.1f}"
            )
        lines.append(f"  {'wall':<28}{self.total_wall / n:>10.4f}")
        return "\n".join(lines)
