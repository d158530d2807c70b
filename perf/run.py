#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name.

Two ways to call it (both from the checkout root)::

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perf/run.py --seed N [--trace] [--aa] [--spread K] [--out FILE]

The first form runs one workload and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``, tracing off) or
every per-layer metric (``--trace 1``, the traced run).  The second form
runs every workload that way in a child process each, prints all metrics
with their units and sample counts, optionally adds the traced runs
(``--trace``), runs everything twice and compares the two sets against
the bounds (``--aa``) or on K seeds to report each metric's spread
(``--spread K``), and exits non-zero when an output check failed.
``perf/README.md`` defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import harness
from harness import (
    NOMINAL_KERNEL_S,
    SETUP_REPEATS,
    Calibrator,
    op_times,
    ops_per_second,
    p50,
    time_call,
    timed_loop,
)

_INFO = "info "
#: Wall-clock metrics that mean nothing for a 2-worker pool on one CPU.
_TIMING_METRICS = ("op_p50_ms", "ops_per_s", "setup_s")


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> tuple[dict, dict]:
    """Run one workload in this process; returns (result line, info)."""
    bench = harness.load_benchmark_json()
    cal = Calibrator()
    cal()  # the first call pays numpy's lazy set-up
    before = cal()
    import_s = harness.prepare_environment()
    import_s /= (before + cal()) / 2 / NOMINAL_KERNEL_S
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(
            f"perf: unknown workload {name!r} (known: {', '.join(WORKLOADS)})"
        )
    work = harness.make_work_dir()
    workload = WORKLOADS[name](seed, work, smoke)
    info = dict(harness.fingerprint(seed), workload=name, smoke=smoke)
    try:
        setups = []
        for _ in range(1 if smoke else SETUP_REPEATS):
            workload.release()
            setups.append(time_call(workload.setup, cal))
        warm_up = time_call(workload.op, cal)
        setup_s = (
            import_s
            + p50([s.calibrated_s for s in setups])
            + warm_up.calibrated_s
        )
        if trace:
            traced = workload.trace(seconds, cal)
            metrics = {m["name"]: 0.0 for m in bench["per_layer"]}
            unknown = traced.metrics.keys() - metrics.keys()
            if unknown:
                raise RuntimeError(
                    f"{name}: per-layer metrics missing from "
                    f"BENCHMARK.json: {sorted(unknown)}"
                )
            metrics.update(traced.metrics)
            metrics["trace.speed_factor"] = cal.speed_factor
            traced.recorder.write_jsonl(
                harness.RESULTS / f"trace_{name}.jsonl", name
            )
            info["spans"] = len(traced.recorder.rows)
            info["resolved"] = sorted(traced.metrics) + ["trace.speed_factor"]
            if traced.table is not None:
                print(traced.table.format(name), flush=True)
        else:
            samples = timed_loop(
                workload.op, seconds, cal, rearm=workload.rearm
            )
            calibrated = op_times(samples)
            metrics = {
                "setup_s": setup_s,
                "op_p50_ms": 1e3 * p50(calibrated),
                "ops_per_s": ops_per_second(samples),
            }
            info.update(
                ops=len(calibrated),
                raw_op_p50_ms=1e3 * p50(op_times(samples, calibrated=False)),
                raw_setup_s=[round(s.wall_s, 4) for s in setups],
                speed_factor=cal.speed_factor,
            )
        check = workload.check()
        if not trace:
            metrics["io_kb_per_op"] = workload.io_bytes_per_op() / 1e3
    finally:
        workload.release()
        harness.stop_resource_tracker()
        harness.remove_work_dir(work)
    if not trace:
        # after release(), so that the children it waited for count
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
    if check.notes:
        info["failures"] = check.notes
    if name == "dump_pool_nyx" and (os.cpu_count() or 1) < 2:
        info["unresolved"] = list(_TIMING_METRICS)
        print(
            "perf: dump_pool_nyx ran 2 workers on 1 CPU; its wall-clock "
            "metrics are unresolved, not a baseline",
            file=sys.stderr,
        )
    units = {
        m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]
    }
    result = {
        "correct": check.failed == 0,
        "attempted": max(1, check.attempted),
        "failed": check.failed,
        "metrics": {
            key: {"value": float(value), "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    return result, info


# ----------------------------------------------------------------------
# the suite: every workload, each in a child process
# ----------------------------------------------------------------------
def _child(
    name: str, args, trace: bool, seed: int | None = None
) -> tuple[dict, dict, str]:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        name,
        "--seed",
        str(args.seed if seed is None else seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        "1" if trace else "0",
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{name} exited with {done.returncode}:\n{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    info = next(
        json.loads(line[len(_INFO):])
        for line in lines
        if line.startswith(_INFO)
    )
    table = "\n".join(
        line for line in lines[:-1] if not line.startswith(_INFO)
    )
    return json.loads(lines[-1]), info, table


def run_suite(args, bench: dict) -> dict:
    """One set: every workload untraced, then (``--trace``) traced."""
    report = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        result, info, _ = _child(name, args, trace=False)
        entry = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": result["metrics"],
            "info": info,
        }
        print(
            f"\n{name}: {info['ops']} ops, checks "
            f"{result['attempted'] - result['failed']}/{result['attempted']}"
            f" ok, speed factor {info['speed_factor']:.3f}"
        )
        _print_metrics(result["metrics"])
        if args.trace:
            traced, trace_info, table = _child(name, args, trace=True)
            entry["per_layer"] = traced["metrics"]
            entry["trace_info"] = trace_info
            entry["correct"] = entry["correct"] and traced["correct"]
            print(f"  traced run: {trace_info['spans']} spans")
            if table:
                print(table)
            _print_metrics(
                {k: v for k, v in traced["metrics"].items() if v["value"]}
            )
        for failure in info.get("failures", []):
            print(f"  FAILED {failure}")
        report[name] = entry
    return report


def run_spread(args, bench: dict) -> dict:
    """The driver's acceptance statistic: each workload ``--spread``
    times, every time with another seed; per end-to-end metric the
    quartile distance of the values as a share of their median."""
    report = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        runs = [
            _child(name, args, trace=False, seed=args.seed + 7 * k)[0]
            for k in range(args.spread)
        ]
        if not all(r["correct"] for r in runs):
            raise RuntimeError(f"{name}: an output check failed")
        print(f"\n{name}: {args.spread} seeds")
        report[name] = {}
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in runs]
            spread = harness.iqr_share(values)
            report[name][spec["name"]] = {
                "values": values,
                "median": p50(values),
                "spread": spread,
                "bound": spec["bound"],
            }
            print(
                f"  {spec['name']:<14}median {p50(values):>12.6g}  spread "
                f"{spread:6.1%} of bound {spec['bound']:.0%}"
            )
    return report


def _print_metrics(metrics: dict) -> None:
    for key, metric in metrics.items():
        print(f"  {key:<44}{metric['value']:>16.6g} {metric['unit']}")


def compare_sets(first: dict, second: dict, bench: dict) -> list[dict]:
    """Every end-to-end metric of every workload, second set vs first."""
    rows = []
    for name in first:
        for spec in bench["end_to_end"]:
            a = first[name]["end_to_end"][spec["name"]]["value"]
            b = second[name]["end_to_end"][spec["name"]]["value"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            rows.append(
                {
                    "workload": name,
                    "metric": spec["name"],
                    "first": a,
                    "second": b,
                    "worse_by": worse,
                    "bound": spec["bound"],
                    "within_bound": worse <= spec["bound"],
                }
            )
    return rows


def main(argv=None) -> int:
    bench = harness.load_benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload only")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument(
        "--seconds", type=float, default=float(bench["run_seconds"])
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--aa", action="store_true")
    parser.add_argument(
        "--spread",
        type=int,
        metavar="N",
        help="N runs per workload on N seeds; report each metric's spread",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny shapes and one set-up, for the self-test",
    )
    parser.add_argument("--out", help="write the suite's results here")
    args = parser.parse_args(argv)

    if args.workload:
        result, info = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        print(_INFO + json.dumps(info), flush=True)
        print(json.dumps(result), flush=True)
        return 0

    started = time.time()
    document = {
        "benchmark": "perf",
        "claim": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "fingerprint": harness.fingerprint(args.seed),
    }
    if args.spread:
        document["spread"] = run_spread(args, bench)
        return _finish(document, args, started, ok=True)
    first = run_suite(args, bench)
    ok = all(entry["correct"] for entry in first.values())
    if args.aa:
        print("\n=== second set (A/A) ===")
        second = run_suite(args, bench)
        ok = ok and all(entry["correct"] for entry in second.values())
        rows = compare_sets(first, second, bench)
        print("\nA/A: second set against the first")
        for row in rows:
            print(
                f"  {row['workload']:<22}{row['metric']:<14}"
                f"{row['first']:>14.6g}{row['second']:>14.6g}"
                f"{row['worse_by']:>+9.1%} (bound {row['bound']:.0%})"
                f"{'' if row['within_bound'] else '  OUTSIDE'}"
            )
        ok = ok and all(row["within_bound"] for row in rows)
        document.update(first=first, second=second, comparison=rows)
    else:
        document["workloads"] = first
    return _finish(document, args, started, ok)


def _finish(document: dict, args, started: float, ok: bool) -> int:
    document["wall_s"] = round(time.time() - started, 1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
            fh.write("\n")
    print(f"\n{'OK' if ok else 'FAILED'} in {document['wall_s']} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
