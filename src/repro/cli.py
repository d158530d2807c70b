"""Command-line interface: ``python -m repro <command>``.

The commands expose the library without writing code:

* ``schedule``  — run the six heuristics (and optionally the ILP) on the
  paper's Figure 1 instance or a random one; prints a Gantt chart.
* ``campaign``  — run a Nyx/WarpX campaign for one or all solutions and
  print the overhead comparison; ``--faults SPEC`` runs it under a
  seeded fault-injection plan and appends a resilience report;
  ``--journal``/``--resume`` write-ahead-log the run and recover an
  interrupted one (``docs/durability.md``).
* ``verify``    — scrub a snapshot or journal offline, walking every
  checksum and structural invariant; exit 0 clean, 1 corrupt.
* ``compress``  — generate a synthetic field, compress it with the
  SZ-style codec, and report ratio/error.
* ``snapshot``  — write a real compressed snapshot of synthetic fields to
  a shared file and verify it on read-back.
* ``serve``     — run the scheduling service: a long-lived JSON-over-
  HTTP server with exact solution memoization, priority dispatch, and
  per-tenant admission quotas (``docs/service.md``).
* ``submit``    — client for a running service: submit solve/campaign
  requests, poll status/health, or ask it to drain and shut down.
* ``experiments`` — list every reproduced table/figure and the
  pytest-benchmark module under ``benchmarks/`` that regenerates it.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

__all__ = ["main", "build_parser"]

_EXPERIMENTS = [
    ("Figure 1", "the worked scheduling example", "benchmarks/bench_fig1_example.py"),
    ("Table 1", "scheduler comparison", "benchmarks/bench_table1_schedulers.py"),
    ("Figure 3", "I/O workload balancing", "benchmarks/bench_fig3_balancing.py"),
    ("Figure 4", "fine-grained block size", "benchmarks/bench_fig4_blocksize.py"),
    ("Figure 5", "compressed data buffer", "benchmarks/bench_fig5_buffer.py"),
    ("Figure 6", "shared Huffman tree", "benchmarks/bench_fig6_shared_tree.py"),
    ("Figure 7", "overhead vs compression ratio", "benchmarks/bench_fig7_ratio.py"),
    ("Figure 8", "overhead vs data distribution", "benchmarks/bench_fig8_distribution.py"),
    ("Figure 9", "Nyx 16 nodes / 64 GPUs", "benchmarks/bench_fig9_nyx64.py"),
    ("Figure 10", "run-stage comparison", "benchmarks/bench_fig10_timesteps.py"),
    ("Figure 11", "weak scaling", "benchmarks/bench_fig11_scaling.py"),
    ("Artifact B.5", "end-to-end runs", "benchmarks/bench_artifact_endtoend.py"),
    ("Ablations", "design-choice decomposition", "benchmarks/bench_ablations.py"),
    ("Sensitivity", "prediction-noise robustness (Section 3.1)", "benchmarks/bench_sensitivity.py"),
    ("Compression config", "Section 5.1 per-field ratio/PSNR", "benchmarks/bench_compression_config.py"),
    ("Codec micro", "real codec throughput on this machine", "benchmarks/bench_codec_micro.py"),
    ("Prediction vs oracle", "Section 5.2 predicted-vs-actual inputs", "benchmarks/bench_prediction_oracle.py"),
    ("Ext: HACC", "third application at low ratios", "benchmarks/bench_extension_hacc.py"),
    ("Ext: subfiling", "multi-file dumps at scale", "benchmarks/bench_extension_subfiling.py"),
]


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.engines import APP_NAMES, ENGINES, SOLUTIONS
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Concealing Compression-accelerated I/O "
            "for HPC Applications through In Situ Task Scheduling' "
            "(EuroSys '24)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every option more than one command declares is written once, in a
    # parent parser the commands inherit it from.  Each group holds one
    # set of defaults: argparse shares the option objects between the
    # commands, so a command that needs another default owns the flag.
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help=(
            "record telemetry spans and write them as JSON lines when "
            "the command ends"
        ),
    )

    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument(
        "--instance",
        choices=["figure1", "random"],
        default="figure1",
        help="which instance to solve",
    )
    instance.add_argument(
        "--jobs",
        type=_positive_int,
        default=6,
        help="random-instance job count",
    )
    instance.add_argument("--seed", type=int, default=0)

    campaign = argparse.ArgumentParser(add_help=False)
    campaign.add_argument("--app", choices=APP_NAMES, default="nyx")
    campaign.add_argument("--nodes", type=int, default=4)
    campaign.add_argument(
        "--ppn", type=int, default=4, help="processes per node"
    )
    campaign.add_argument("--iterations", type=int, default=6)
    campaign.add_argument(
        "--seed",
        type=int,
        default=1,
        help=(
            "master seed: drives the application fields, the per-rank "
            "noise models, and (with --faults) every fault draw, so one "
            "value reproduces the whole campaign"
        ),
    )
    campaign.add_argument(
        "--engine",
        choices=ENGINES,
        default="sim",
        help=(
            "execution backend: 'sim' models everything in-process; "
            "'process' really compresses each rank's partition on a "
            "worker-process pool with the writes overlapped "
            "(journal records and reports are identical either way; "
            "ignored with --resume, which follows the journal header)"
        ),
    )

    client = argparse.ArgumentParser(add_help=False)
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8742)
    client.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="HTTP timeout per request, seconds",
    )
    client.add_argument(
        "--retries",
        type=int,
        default=5,
        help=(
            "retry attempts per request (connection errors and 5xx), "
            "each with backoff and the same idempotency key; 0 fails "
            "on the first error"
        ),
    )
    client.add_argument(
        "--retry-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up retrying a request after this long in total",
    )

    p = sub.add_parser(
        "schedule",
        parents=[instance, trace],
        help="run the scheduling heuristics",
    )
    p.add_argument(
        "--algorithm",
        default=None,
        help=(
            "run one named algorithm through the solve() facade "
            "instead of sweeping all six heuristics "
            "(exact solvers 'ILP' and 'Exhaustive' included)"
        ),
    )
    p.add_argument(
        "--ilp",
        action="store_true",
        help="also solve the Appendix A ILP (small instances only)",
    )

    p = sub.add_parser(
        "campaign",
        parents=[campaign, trace],
        help="run an application campaign",
    )
    p.add_argument(
        "--solution",
        choices=[*SOLUTIONS, "all"],
        default="all",
    )
    p.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "YAML/JSON fault spec (see examples/fault_specs/); injects "
            "stalls, write errors, bandwidth bursts, compression "
            "failures, and stragglers, then prints a resilience report"
        ),
    )
    p.add_argument(
        "--data-out",
        metavar="DIR",
        default=None,
        help=(
            "directory for real compressed .rpio containers: every dump "
            "iteration also generates, compresses, CRC32C-stamps, and "
            "writes each rank's partition (the 'process' engine uses a "
            "temp dir when omitted; 'sim' skips the data plane)"
        ),
    )
    p.add_argument(
        "--data-edge",
        type=int,
        default=16,
        help="cubic partition edge of the real data-plane fields",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for --engine process "
            "(default: min(ranks, cpu count))"
        ),
    )
    p.add_argument(
        "--task-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "wall-clock deadline for one attempt of a rank compression "
            "task under --engine process; past it the attempt is "
            "abandoned and the task retried (0 disables deadlines)"
        ),
    )
    p.add_argument(
        "--max-task-retries",
        type=int,
        default=2,
        help=(
            "re-executions of a failed/timed-out rank task before the "
            "parent compresses that rank serially (bytes identical "
            "either way)"
        ),
    )
    journal = p.add_mutually_exclusive_group()
    journal.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help=(
            "write-ahead campaign journal (JSONL): one plan record "
            "before and one commit record after each iteration, fsynced; "
            "requires a single --solution"
        ),
    )
    journal.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help=(
            "resume an interrupted journaled campaign: replays the "
            "committed prefix (verifying it byte-for-byte) and continues "
            "from the first incomplete iteration; campaign parameters "
            "come from the journal header (excludes --journal: --resume "
            "appends to the journal it resumes)"
        ),
    )
    p.add_argument(
        "--report-out",
        metavar="FILE",
        default=None,
        help=(
            "write the campaign result as JSON (atomic temp+fsync+"
            "rename); with --journal/--resume this is the recovery-gate "
            "artifact"
        ),
    )

    p = sub.add_parser(
        "verify",
        help="scrub a snapshot or journal for corruption (exit 1 if any)",
    )
    p.add_argument(
        "target",
        help="a .rpio snapshot, journal, or request ledger",
    )
    p.add_argument(
        "--kind",
        choices=["auto", "snapshot", "journal", "ledger"],
        default="auto",
        help="what the target is (default: sniff the file)",
    )

    p = sub.add_parser("compress", help="compress a synthetic field")
    p.add_argument(
        "--backend",
        default=None,
        help="codec kernel backend (any registered backend — "
        "pure, numpy, deflate, zlib; default: numpy)",
    )
    p.add_argument("--field", default="temperature")
    p.add_argument(
        "--size", type=_positive_int, default=48, help="cubic field edge"
    )
    p.add_argument(
        "--error-bound",
        type=float,
        default=None,
        help="absolute bound (default: the field's Nyx bound)",
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "snapshot", help="write + verify a real compressed snapshot"
    )
    p.add_argument("output", help="output file")
    p.add_argument("--app", choices=APP_NAMES, default="nyx")
    p.add_argument("--size", type=int, default=32, help="cubic field edge")
    p.add_argument("--fields", type=int, default=3, help="fields to dump")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "serve",
        parents=[trace],
        help="run the scheduling service (JSON over HTTP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8742,
        help="listening port (0 picks a free ephemeral port)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="solver worker threads draining the dispatch queue",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="bounded dispatch-queue depth (beyond it: 429 queue_full)",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="memo-cache capacity in solutions (0 disables memoization)",
    )
    p.add_argument(
        "--quota-rate",
        type=float,
        default=50.0,
        help="per-tenant token refill, requests/second (0 = no refill)",
    )
    p.add_argument(
        "--quota-burst",
        type=float,
        default=20.0,
        help="per-tenant token-bucket capacity",
    )
    p.add_argument(
        "--ledger",
        metavar="FILE",
        default=None,
        help=(
            "request ledger: admitted campaigns are journaled and "
            "replayed after a crash; a solve's 200 reply is recorded "
            "once, so retries of it are answered verbatim"
        ),
    )
    p.add_argument(
        "--drain-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "hard cap on graceful-drain time; queued requests past it "
            "get a 503 draining rejection"
        ),
    )
    p.add_argument(
        "--supervised",
        action="store_true",
        help=(
            "run the server as a child process under a watchdog that "
            "probes /health and a heartbeat file, and restarts it on "
            "crash or hang with bounded exponential backoff"
        ),
    )
    p.add_argument(
        "--heartbeat-file",
        metavar="FILE",
        default=None,
        help=(
            "liveness file the server refreshes every second from its "
            "event loop (default with --supervised: "
            "<tmp>/repro-serve-heartbeat)"
        ),
    )
    p.add_argument(
        "--hang-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help=(
            "watchdog: kill + restart the child when neither heartbeat "
            "nor /health shows life for this long"
        ),
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        help="watchdog: give up (structured exit 1) after this many restarts",
    )
    p.add_argument(
        "--restart-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="watchdog: first restart backoff (doubles per restart)",
    )

    p = sub.add_parser(
        "submit", help="talk to a running scheduling service"
    )
    submit_sub = p.add_subparsers(dest="submit_command", required=True)

    q = submit_sub.add_parser(
        "solve",
        parents=[client, instance],
        help="submit one solve request",
    )
    q.add_argument(
        "--algorithm",
        default=None,
        help="algorithm name (default: the service's default)",
    )
    q.add_argument("--engine", choices=ENGINES, default="sim")
    q.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS"
    )
    q.add_argument("--tenant", default="default")
    q.add_argument(
        "--priority",
        type=int,
        default=0,
        help="dispatch priority (higher runs first)",
    )
    q.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire the request if still queued after this long",
    )
    q.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the service's memo cache for this request",
    )

    q = submit_sub.add_parser(
        "campaign",
        parents=[client, campaign],
        help="submit one campaign request",
    )
    q.add_argument(
        "--solution",
        choices=SOLUTIONS,
        default="ours",
    )
    q.add_argument("--tenant", default="default")
    q.add_argument(
        "--journal",
        metavar="FILE",
        default=None,
        help="server-side write-ahead journal path for the campaign",
    )

    for name, help_text in (
        ("status", "print the service's counter snapshot"),
        ("health", "print the service's liveness/drain state"),
        ("shutdown", "ask the service to drain and exit"),
    ):
        submit_sub.add_parser(name, parents=[client], help=help_text)

    sub.add_parser("experiments", help="list the reproduced experiments")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    if args.command == "serve" and args.supervised:
        return _cmd_serve_supervised(args, argv)
    handler = {
        "schedule": _cmd_schedule,
        "campaign": _cmd_campaign,
        "compress": _cmd_compress,
        "snapshot": _cmd_snapshot,
        "experiments": _cmd_experiments,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }[args.command]
    return handler(args)


# ----------------------------------------------------------------------
def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _make_tracer(args):
    """A recording tracer when ``--trace-out`` was given, else the null."""
    from repro.telemetry import NULL_TRACER, Tracer

    return Tracer() if args.trace_out else NULL_TRACER


def _write_trace(tracer, path: str) -> None:
    if not tracer.enabled:
        return
    tracer.recorder.write_jsonl(path)
    print(
        f"\ntrace: {len(tracer.recorder.records)} records -> {path}"
    )


def _cmd_schedule(args) -> int:
    from repro.core import (
        get_algorithm_info,
        list_algorithms,
        lower_bound,
        solve,
        trace_schedule,
    )
    from repro.telemetry import Tracer, render_gantt

    tracer = _make_tracer(args)
    instance = _make_instance(args)
    print(
        f"instance: {instance.num_jobs} jobs, "
        f"{len(instance.main_obstacles)} main / "
        f"{len(instance.background_obstacles)} background obstacles, "
        f"T_n = {instance.length:.2f}"
    )
    print(f"lower bound on I/O makespan: {lower_bound(instance):.3f}\n")
    names = (
        [args.algorithm]
        if args.algorithm
        else list_algorithms()
    )
    best_name, best = None, None
    for name in names:
        try:
            info = get_algorithm_info(name)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        result = solve(instance, name, tracer=tracer, time_limit=30.0)
        if result.schedule is None:
            print(f"  {name:28s} {result.status}: no schedule")
            continue
        if not info.exact:
            # Exact solvers place tasks on a discretized grid whose
            # sub-microsecond slack the strict validator rejects.
            result.schedule.validate()
        print(
            f"  {name:28s} io makespan = {result.makespan:7.3f} "
            f"({result.wall_time * 1e3:.1f} ms)"
        )
        if best is None or result.makespan < best.io_makespan:
            best_name, best = name, result.schedule
    if args.ilp and "ILP" not in names:
        result = solve(instance, "ILP", tracer=tracer, time_limit=30.0)
        value = "-" if result.makespan is None else f"{result.makespan:7.3f}"
        print(f"  {'ILP (' + result.status + ')':28s} io makespan = {value}")
    if best is None:
        _write_trace(tracer, args.trace_out)
        return 1
    print(f"\nbest heuristic: {best_name}")
    planned = Tracer()
    trace_schedule(planned, best)
    print(render_gantt(planned.recorder.spans, legend=False))
    _write_trace(tracer, args.trace_out)
    return 0


def _make_instance(args):
    from repro.core import Interval, Job, ProblemInstance, figure1_instance

    if args.instance == "figure1":
        return figure1_instance()
    rng = np.random.default_rng(args.seed)
    length = 20.0

    def obstacles(count):
        points = np.sort(rng.uniform(0, length, 2 * count))
        return tuple(
            Interval(float(points[2 * i]), float(points[2 * i + 1]))
            for i in range(count)
        )

    jobs = tuple(
        Job(i, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
        for i in range(args.jobs)
    )
    return ProblemInstance(
        begin=0.0,
        end=length,
        jobs=jobs,
        main_obstacles=obstacles(2),
        background_obstacles=obstacles(2),
    )


def _cmd_campaign(args) -> int:
    from repro.durability import JournalError
    from repro.engines import (
        SOLUTIONS,
        CampaignSpec,
        EngineError,
        run_campaign,
    )
    from repro.framework import format_table, write_campaign_report

    if args.journal and args.solution == "all":
        print(
            "error: --journal records a single campaign; pick one "
            "--solution (baseline, previous, or ours)",
            file=sys.stderr,
        )
        return 2

    spec_data = None
    if args.faults and not args.resume:
        from repro.resilience import load_spec_data

        try:
            spec_data = load_spec_data(args.faults)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    tracer = _make_tracer(args)

    def on_resume(journal):
        header = journal.header
        print(
            f"resuming {header['solution']} campaign from "
            f"{args.resume}: {journal.committed_iterations}/"
            f"{header['iterations']} iterations already committed"
        )

    runs = []
    try:
        spec = CampaignSpec(
            app=args.app,
            nodes=args.nodes,
            ppn=args.ppn,
            iterations=args.iterations,
            seed=args.seed,
            engine=args.engine,
            faults=spec_data,
            data_dir=args.data_out,
            data_edge=args.data_edge,
            workers=args.workers,
            # `--task-deadline 0` is the CLI spelling of "no deadline".
            task_deadline_s=args.task_deadline or None,
            max_task_retries=args.max_task_retries,
        )
        if args.resume:
            # Every campaign parameter comes from the journal header so
            # the resumed run re-executes exactly what the crashed run
            # planned; only the (unjournalled) data-plane knobs are ours.
            runs.append(
                run_campaign(
                    spec,
                    resume_path=args.resume,
                    tracer=tracer,
                    on_resume=on_resume,
                )
            )
        else:
            solutions = (
                SOLUTIONS
                if args.solution == "all"
                else (args.solution,)
            )
            for name in solutions:
                runs.append(
                    run_campaign(
                        dataclasses.replace(spec, solution=name),
                        journal_path=(
                            args.journal
                            if name == args.solution
                            else None
                        ),
                        tracer=tracer,
                    )
                )
    except (OSError, ValueError, JournalError, EngineError) as exc:
        for run in runs:
            run.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []
    reports = []
    for run in runs:
        result = run.result
        rows.append(
            (
                result.solution,
                f"{result.mean_relative_overhead * 100:.1f}%",
                f"{result.total_time:.1f}s",
            )
        )
        if result.resilience is not None:
            reports.append((result.solution, result.resilience))
    print(
        format_table(
            rows, headers=("solution", "I/O overhead", "total time")
        )
    )
    for run in runs:
        if run.data is not None:
            data = run.data
            print(
                f"\ndata plane [{run.result.solution}/{run.engine}]: "
                f"{data.num_blocks} blocks, "
                f"{data.raw_bytes / 2**20:.2f} MiB -> "
                f"{data.compressed_bytes / 2**20:.2f} MiB "
                f"(ratio {data.compression_ratio:.1f}x), "
                f"dump wall {data.dump_wall_s:.2f}s, "
                f"{data.workers} worker(s)"
            )
            sup = data.supervisor
            if sup is not None and sup.recovered:
                print(
                    f"supervisor [{run.result.solution}]: "
                    f"{sup.attempts} attempts for {sup.tasks} tasks, "
                    f"{sup.retries} retries, "
                    f"{sup.deadline_misses} deadline misses, "
                    f"{sup.worker_deaths} worker deaths, "
                    f"{sup.worker_errors} worker errors, "
                    f"{len(sup.fallback_ranks)} serial fallbacks"
                )
    for name, report in reports:
        print(f"\nresilience [{name}]:")
        print(report.format())
    final = runs[-1] if runs else None
    if args.report_out and final is not None:
        before_commit = None
        injector = None if final.journal is None else final.journal.injector
        if injector is not None:
            # The "report" crash point: die after the temp file is
            # durable but before the rename publishes it.
            def before_commit():
                injector.crash_point("report", -1)

        write_campaign_report(
            args.report_out, final.result, before_commit=before_commit
        )
        print(f"report -> {args.report_out}")
    for run in runs:
        run.close()
    _write_trace(tracer, args.trace_out)
    return 0


def _cmd_serve(args) -> int:
    from repro.service import SchedulingService, ServiceConfig, serve_forever
    from repro.service.server import startup_heartbeat

    tracer = _make_tracer(args)
    # Ledger replay may outlast --hang-timeout: a thread beats through it.
    with startup_heartbeat(args.heartbeat_file):
        try:
            config = ServiceConfig(
                workers=args.workers,
                max_queue=args.max_queue,
                cache_size=args.cache_size,
                quota_rate=args.quota_rate,
                quota_burst=args.quota_burst,
                ledger_path=args.ledger,
                drain_deadline_s=args.drain_deadline,
            )
            service = SchedulingService(config, tracer=tracer)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        # Replay admitted-but-unanswered requests *before* the socket
        # opens: a restarted server converges to the same memoized state
        # as an uninterrupted one, then accepts traffic.
        if service.ledger is not None:
            recovered = service.recover()
            if recovered["replayed"]:
                print(
                    f"repro service recovered {recovered['replayed']} "
                    f"request(s) from the ledger "
                    f"({recovered['solve']} solve, "
                    f"{recovered['campaign']} campaign, "
                    f"{recovered['failed']} failed)",
                    flush=True,
                )

    def on_bound(host, port):
        print(f"repro service listening on http://{host}:{port}", flush=True)
        print(
            f"  workers={config.workers} cache={config.cache_size} "
            f"quota={config.quota_rate:g}/s burst={config.quota_burst:g}"
            f"{' ledger=' + config.ledger_path if config.ledger_path else ''}",
            flush=True,
        )

    try:
        serve_forever(
            service,
            host=args.host,
            port=args.port,
            on_bound=on_bound,
            install_signal_handlers=True,
            heartbeat_path=args.heartbeat_file,
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # Signal-triggered exits land here too: always drain.
        service.shutdown()
    print("repro service drained and stopped")
    _write_trace(tracer, args.trace_out)
    return 0


def _cmd_serve_supervised(args, argv: list[str]) -> int:
    """Run the server as a watchdog-supervised child process."""
    import os
    import signal as signal_module
    import tempfile

    from repro.resilience import RetryPolicy
    from repro.service import Watchdog

    heartbeat = args.heartbeat_file
    if heartbeat is None:
        heartbeat = os.path.join(
            tempfile.gettempdir(), f"repro-serve-heartbeat-{os.getpid()}"
        )
    # The child runs the exact same serve command minus --supervised,
    # plus the heartbeat file the watchdog will watch.  argparse accepts
    # any unique prefix (`--sup`), so every spelling of the flag goes:
    # a child that kept one would supervise a grandchild, and so on.
    child_argv = [
        sys.executable,
        "-m",
        "repro",
        *[
            a
            for a in argv
            if not (len(a) > 2 and "--supervised".startswith(a))
        ],
    ]
    if args.heartbeat_file is None:
        child_argv += ["--heartbeat-file", heartbeat]
    watchdog = Watchdog(
        child_argv,
        heartbeat_path=heartbeat,
        host=args.host,
        port=args.port if args.port != 0 else None,
        hang_timeout_s=args.hang_timeout,
        max_restarts=args.max_restarts,
        backoff=RetryPolicy(
            max_attempts=max(args.max_restarts, 1) + 1,
            base_backoff_s=args.restart_backoff,
            backoff_multiplier=2.0,
        ),
    )
    for signum in (signal_module.SIGINT, signal_module.SIGTERM):
        signal_module.signal(
            signum, lambda *_: watchdog.request_stop()
        )
    return watchdog.run()


def _cmd_submit(args) -> int:
    import json as json_module

    from repro.core import instance_json_dict
    from repro.resilience import RetryPolicy
    from repro.service import ServiceClient, ServiceUnavailableError

    retry = None
    if args.retries > 0:
        retry = RetryPolicy(
            max_attempts=args.retries,
            base_backoff_s=0.2,
            backoff_multiplier=2.0,
            deadline_s=args.retry_deadline,
        )
    with ServiceClient(
        args.host, args.port, timeout=args.timeout, retry=retry
    ) as client:
        try:
            if args.submit_command == "solve":
                instance = _make_instance(args)
                payload = {
                    "instance": instance_json_dict(instance),
                    "engine": args.engine,
                    "tenant": args.tenant,
                    "priority": args.priority,
                }
                if args.algorithm is not None:
                    payload["algorithm"] = args.algorithm
                if args.time_limit is not None:
                    payload["time_limit"] = args.time_limit
                if args.deadline is not None:
                    payload["deadline_s"] = args.deadline
                if args.no_cache:
                    payload["cache"] = False
                status, body = client.solve(payload)
                if status == 200:
                    solution = body["solution"]
                    timing = body.get("timing", {})
                    print(
                        f"{solution['algorithm']}: io makespan = "
                        f"{solution['makespan']:.3f} "
                        f"[{body['cache']}, key {body['key']}]"
                    )
                    if timing:
                        print(
                            f"  queue {timing['queue_wait_s'] * 1e3:.2f} ms, "
                            f"solve {timing['solve_s'] * 1e3:.2f} ms"
                        )
                    return 0
            elif args.submit_command == "campaign":
                payload = {
                    "app": args.app,
                    "nodes": args.nodes,
                    "ppn": args.ppn,
                    "iterations": args.iterations,
                    "solution": args.solution,
                    "seed": args.seed,
                    "engine": args.engine,
                    "tenant": args.tenant,
                }
                if args.journal is not None:
                    payload["journal"] = args.journal
                status, body = client.campaign(payload)
                if status == 200:
                    campaign = body["campaign"]
                    print(
                        f"{campaign['solution']}: "
                        f"{campaign['iterations']} iterations, "
                        f"I/O overhead "
                        f"{campaign['mean_relative_overhead'] * 100:.1f}%, "
                        f"total {campaign['total_time']:.1f}s "
                        f"(wall {campaign['wall_time_s']:.2f}s, "
                        f"engine {campaign['engine']})"
                    )
                    if campaign.get("journal"):
                        print(f"  journal -> {campaign['journal']}")
                    return 0
            elif args.submit_command in ("status", "health"):
                status, body = getattr(client, args.submit_command)()
                print(json_module.dumps(body, indent=2, sort_keys=True))
                return 0 if status == 200 else 1
            else:  # shutdown
                status, body = client.shutdown()
                print(
                    "service draining" if status == 200 else f"HTTP {status}"
                )
                return 0 if status == 200 else 1
        except ServiceUnavailableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    # A structured non-200 reply (rejection / bad request / failure).
    error = body.get("error", {})
    code = error.get("code", f"http_{status}")
    message = error.get("message", "request failed")
    line = f"rejected [{code}]: {message}"
    if "retry_after_s" in error:
        line += f" (retry after {error['retry_after_s']:g}s)"
    print(line, file=sys.stderr)
    return 3


def _cmd_verify(args) -> int:
    from repro.durability import verify_path

    try:
        report = verify_path(args.target, kind=args.kind)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.format())
    return 0 if report.ok else 1


def _cmd_compress(args) -> int:
    from repro.apps import NyxModel
    from repro.compression import SZCompressor, max_abs_error, psnr

    app = NyxModel(seed=args.seed, partition_shape=(args.size,) * 3)
    try:  # a bad field, bound or backend names itself
        field = app.generate_field(args.field, rank=0, iteration=5)
        print(f"field: {args.field} {field.shape} {field.dtype}")
        bound = (
            args.error_bound
            if args.error_bound is not None
            else app.field(args.field).error_bound
        )
        compressor = SZCompressor(backend=args.backend)
        block = compressor.compress(field, bound)
        recon = compressor.decompress(block)
        print(
            f"codec: SZ-style, absolute error bound {bound:g}, "
            f"{compressor.backend.name} backend "
            f"(stream format {block.codec})"
        )
        print(f"compression ratio: {block.compression_ratio:.1f}x")
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(f"max abs error: {max_abs_error(field, recon):.4g}")
    print(f"PSNR: {psnr(field, recon):.1f} dB")
    return 0


def _cmd_snapshot(args) -> int:
    from repro.compression import max_abs_error
    from repro.engines import CampaignSpec
    from repro.framework import load_snapshot, save_snapshot

    try:
        # The data plane's own constructor: same fields, same HACC
        # particle count (size**3) as a campaign with this data edge.
        app = CampaignSpec(
            app=args.app,
            seed=args.seed,
            data_edge=args.size,
            data_fields=args.fields,
        ).data_application()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    specs = list(app.fields[: args.fields])
    fields = {
        spec.name: app.generate_field(spec.name, 0, 5) for spec in specs
    }
    bounds = {spec.name: spec.error_bound for spec in specs}
    try:
        stats = save_snapshot(
            args.output,
            fields,
            error_bounds=bounds,
            block_bytes=max(32 * 1024, fields[specs[0].name].nbytes // 8),
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote {stats.num_blocks} blocks, "
        f"{stats.compressed_bytes / 2**20:.2f} MiB "
        f"(ratio {stats.compression_ratio:.1f}x, "
        f"{stats.overflow_blocks} overflow) to {args.output}"
    )
    restored = load_snapshot(args.output)
    for name, original in fields.items():
        error = max_abs_error(original, restored[name])
        bound = bounds[name]
        status = "ok" if error <= bound * (1 + 1e-9) else "VIOLATED"
        print(f"  {name:22s} max error {error:.4g} (bound {bound:g}) {status}")
        if status != "ok":
            return 1
    print("snapshot verified")
    return 0


def _cmd_experiments(args) -> int:
    from repro.framework import format_table

    print(
        format_table(
            _EXPERIMENTS, headers=("experiment", "what", "bench")
        )
    )
    print("\nRun all with: pytest benchmarks/ --benchmark-only")
    print(
        "Kernel ratio gates: pytest benchmarks/bench_codec_micro.py "
        "benchmarks/bench_durability.py benchmarks/bench_core_schedule.py "
        "benchmarks/bench_service.py --benchmark-only"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
