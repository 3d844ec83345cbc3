"""Command-line driver: compile, transform, measure, and run.

Usage::

    python -m repro input.c  --roll --size --emit-ir
    python -m repro input.ll --unroll 8 --reroll --size
    python -m repro input.c  --roll --loop-aware --run main 1 2
    python -m repro a.c b.c c.ll --roll --jobs 4 --cache-dir .rolag-cache
    python -m repro a.c b.c --roll --check-semantics
    python -m repro a.c b.c --roll --deadline 5 --retries 2 \
        --quarantine-file .rolag-quarantine.json
    python -m repro difftest --seed 0 --count 2000
    python -m repro bench --quick
    python -m repro bench --suite serve --count 100
    python -m repro chaos --seed 0 --rounds 4
    python -m repro serve --workers 2 --cache-dir .rolag-cache
    python -m repro serve --fast-math --validate safe
    python -m repro client a.ll b.c -- --workers 2

Input ending in ``.ll`` is parsed as IR text; anything else goes
through the mini-C frontend (with the standard -Os-style cleanups
unless ``--no-opt`` is given).

With several inputs the batch path takes over: every module is
optimized through the parallel, memoizing driver (``repro.driver``),
``--jobs`` worker processes wide, with per-module results memoized
under ``--cache-dir`` unless ``--no-cache`` is given.

``repro difftest`` runs the differential-testing campaign instead:
fuzzed IR functions through the full pipeline, observed against the
reference interpreter, mismatches bisected to the guilty pass and
minimized (see ``docs/difftest.md``).

``repro bench`` runs one recorded benchmark suite (``--suite``:
``compiled-eval``, the default, times the compiled evaluator against
the reference interpreter; ``struct-cache`` and ``serve``) and writes
its ``BENCH_*.json`` and ``results/*.txt`` through
``repro.bench.record.record_suite``, the sidecars of both under
``--quick``; it exits 1 when any of the suite's bars fails.

``repro serve`` runs the always-on streaming optimization daemon over
stdio (or localhost HTTP with ``--http``); ``repro client`` submits
files to a freshly spawned daemon and prints the familiar batch table
(see ``docs/serve.md``).

Batch, serve and difftest share the RoLAG option group
(:func:`add_rolag_options`); batch and serve share the driver option
group (:func:`add_driver_options`).  :func:`rolag_config_from_args`
builds the one :class:`RolagConfig` all three run, and
:func:`driver_options_from_args` the driver keywords batch and serve
pass to their :class:`~repro.driver.DriverSession`.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from .bench.objsize import measure_module, reduction_percent
from .bench.record import SUITES, record_suite
from .bench.reporting import format_table
from .driver import FunctionJob, optimize_functions
from .frontend import CParseError, LexError, LowerError, compile_c
from .ir import (
    EVALUATOR_CHOICES,
    Module,
    ParseError,
    VerificationError,
    make_machine,
    parse_module,
    print_module,
    verify_module,
)
from .rolag import RolagConfig, RolagStats, roll_loops_in_module
from .transforms import reroll_loops, unroll_loops
from .validation import VALIDATION_LEVELS


def add_rolag_options(parser: argparse.ArgumentParser) -> None:
    """The RoLAG option group: batch, serve and difftest.

    :func:`rolag_config_from_args` turns it into a :class:`RolagConfig`.
    """
    group = parser.add_argument_group("RoLAG options")
    group.add_argument(
        "--loop-aware",
        action="store_true",
        help="re-roll enclosing loops in place",
    )
    group.add_argument(
        "--fast-math",
        action="store_true",
        help="allow re-association of float reductions",
    )
    group.add_argument(
        "--no-special-nodes",
        action="store_true",
        help="disable every special alignment-node kind",
    )
    group.add_argument(
        "--evaluator",
        choices=EVALUATOR_CHOICES,
        default="interp",
        help="execution backend of the semantics oracle, the validation "
        "gate and a single input's --run (default: interp; 'compiled' "
        "lowers functions to closures once and runs them without "
        "per-instruction dispatch)",
    )


def add_driver_options(parser: argparse.ArgumentParser) -> None:
    """The driver option group: batch and serve."""
    group = parser.add_argument_group("driver options")
    group.add_argument(
        "--validate",
        choices=VALIDATION_LEVELS,
        default="off",
        help="run every pass and rolling decision transactionally "
        "through the online validation gate: 'fast' re-verifies touched "
        "blocks, 'safe' adds an observation-equality check, 'strict' "
        "adds cross-backend parity; rejected edits roll back to the "
        "best-known-good IR (default: off)",
    )
    group.add_argument(
        "--guard-dir",
        metavar="DIR",
        help="with --validate: write minimized guard-failure repro "
        "bundles under DIR (default: write none)",
    )
    group.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="memoize per-function optimization results under DIR",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable result memoization: neither read nor write "
        "memoized results",
    )
    group.add_argument(
        "--no-dedupe",
        action="store_true",
        help="run every job even when it is alpha-equivalent to "
        "another job in the batch or in flight",
    )
    group.add_argument(
        "--check-semantics",
        action="store_true",
        help="differentially test every transformed module against its "
        "input with the difftest oracle",
    )
    group.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget per function; overruns become "
        "structured timeout results instead of stalling the run",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="extra attempts for a crashed/timed-out function before it "
        "degrades to an error result (default %(default)s)",
    )
    group.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base delay between retry attempts, doubled per attempt "
        "(default %(default)s)",
    )
    group.add_argument(
        "--quarantine-file",
        metavar="PATH",
        help="persist failure counts to PATH and skip functions that "
        "repeatedly crashed or hung in earlier runs",
    )
    group.add_argument(
        "--fault-plan",
        metavar="SPEC",
        help="inject deterministic faults, e.g. "
        "'driver.worker.start:raise@3;cache.read:corrupt' or "
        "'@plan.json' (testing aid; see docs/robustness.md)",
    )


def rolag_config_from_args(args: argparse.Namespace) -> RolagConfig:
    """The one :class:`RolagConfig` batch, serve and difftest run.

    Reads the RoLAG group and, where the parser has the driver group,
    ``--validate`` and ``--guard-dir``.  ``--evaluator`` picks the
    validation gate's backend as well as the oracle's.  Guard-failure
    bundles are written only where ``--guard-dir`` names a directory.
    """
    config = RolagConfig(
        fast_math=args.fast_math,
        loop_aware=args.loop_aware,
        validate=getattr(args, "validate", "off"),
        validate_evaluator=args.evaluator,
        guard_dir=getattr(args, "guard_dir", None),
    )
    if args.no_special_nodes:
        config = config.all_special_disabled()
    return config


def driver_options_from_args(args: argparse.Namespace) -> Dict[str, object]:
    """The :class:`~repro.driver.DriverSession` keywords of the driver
    group, for batch and serve; each adds its own worker count.

    ``--no-cache`` is ``cache_dir=None``: nothing read, nothing written.
    """
    return dict(
        cache_dir=None if args.no_cache else args.cache_dir,
        dedupe=not args.no_dedupe,
        check_semantics=args.check_semantics,
        evaluator=args.evaluator,
        deadline=args.deadline,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        quarantine_file=args.quarantine_file,
        fault_plan=args.fault_plan,
    )


def build_arg_parser() -> argparse.ArgumentParser:
    """The argparse definition of the driver's interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RoLAG loop-rolling compiler driver "
        "(CGO 2022 reproduction)",
    )
    parser.add_argument(
        "input",
        nargs="+",
        help="mini-C source files or .ll IR files; several inputs run "
        "through the parallel batch driver",
    )
    parser.add_argument(
        "--no-opt",
        action="store_true",
        help="skip the -Os style cleanup pipeline after the frontend",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="worker processes for the batch driver "
        "(default: min(cpu count, 8); 1 forces the serial path)",
    )
    parser.add_argument(
        "--unroll",
        type=int,
        metavar="N",
        help="unroll counted loops by N before anything else",
    )
    parser.add_argument(
        "--reroll",
        action="store_true",
        help="run the LLVM-style loop reroll baseline",
    )
    parser.add_argument(
        "--roll",
        action="store_true",
        help="run RoLAG loop rolling",
    )
    parser.add_argument(
        "--emit-ir",
        action="store_true",
        help="print the final IR to stdout",
    )
    parser.add_argument(
        "--size",
        action="store_true",
        help="report per-function and total size estimates",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="with --roll: print alignment-node statistics",
    )
    parser.add_argument(
        "--run",
        nargs="+",
        metavar=("FUNCTION", "ARG"),
        help="interpret FUNCTION with integer/float arguments",
    )
    parser.add_argument(
        "--serial-fallback",
        action="store_true",
        help="batch mode: if the worker pool keeps dying, finish the "
        "remaining functions in-process instead of abandoning them",
    )
    add_rolag_options(parser)
    add_driver_options(parser)
    return parser


def build_difftest_parser() -> argparse.ArgumentParser:
    """The ``repro difftest`` subcommand's interface."""
    parser = argparse.ArgumentParser(
        prog="repro difftest",
        description="Differential-testing campaign: fuzz IR functions, "
        "run the cleanup + reroll + RoLAG pipeline, compare observable "
        "behaviour, and bisect any mismatch to the guilty pass.",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    parser.add_argument(
        "--count",
        type=int,
        default=500,
        help="number of fuzzed functions (default 500)",
    )
    parser.add_argument(
        "--vectors",
        type=int,
        default=3,
        help="argument vectors per function (default 3)",
    )
    parser.add_argument(
        "--step-limit",
        type=int,
        default=None,
        help="interpreter step budget per observation",
    )
    parser.add_argument(
        "--repro-dir",
        metavar="DIR",
        help="write minimized mismatch repros (.ll) into DIR",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the progress line",
    )
    parser.add_argument(
        "--case-deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget per case; overruns are recorded as "
        "structured errors instead of stalling the campaign",
    )
    add_rolag_options(parser)
    return parser


def build_chaos_parser() -> argparse.ArgumentParser:
    """The ``repro chaos`` subcommand's interface."""
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Chaos campaign: run a synthetic corpus through the "
        "batch driver under seeded randomized fault plans and check the "
        "resilience invariants (see docs/robustness.md).",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default 0)"
    )
    parser.add_argument(
        "--count",
        type=int,
        default=12,
        help="synthetic corpus size per round (default 12)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=4,
        help="fault-plan rounds, the first always fault-free (default 4)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="driver worker processes (default 2)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=5.0,
        help="per-function wall-clock budget in seconds (default 5)",
    )
    parser.add_argument(
        "--base-dir",
        metavar="DIR",
        help="keep the campaign's cache and quarantine file under DIR "
        "(default: a discarded temporary directory)",
    )
    parser.add_argument(
        "--validate",
        choices=VALIDATION_LEVELS,
        default=None,
        help="run the storm with the online validation gate at this "
        "level; the campaign then asserts no round emits "
        "semantics-changing IR (default: off for the batch storm, "
        "safe under --serve; an explicit value is always honored)",
    )
    parser.add_argument(
        "--ir-faults",
        action="store_true",
        help="add corrupt-ir clauses (semantics-changing IR mutations "
        "at pass exits) to every faulted round and oracle-check every "
        "successful result",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="storm a live serve daemon through the wire protocol "
        "instead of the batch driver: backpressure resubmission, "
        "cross-tenant dedupe, per-job degradation, and (with "
        "--validate) zero wrong outputs are all asserted",
    )
    parser.add_argument(
        "--kill-daemon",
        action="store_true",
        help="(with --serve) storm a real supervised, journalled "
        "daemon subprocess and SIGKILL it mid-storm: asserts every "
        "admitted job still completes with an oracle-verified output "
        "and no idempotency-keyed resubmission executes twice",
    )
    parser.add_argument(
        "--kills",
        type=int,
        default=2,
        help="(with --kill-daemon) SIGKILLs to deliver (default 2)",
    )
    return parser


def run_chaos_command(argv: List[str]) -> int:
    """``repro chaos ...``: exit 1 when a resilience invariant breaks."""
    from .faultinject.chaos import (
        run_chaos,
        run_serve_chaos,
        run_serve_kill_chaos,
    )

    args = build_chaos_parser().parse_args(argv)
    if args.serve and args.kill_daemon:
        report = run_serve_kill_chaos(
            seed=args.seed,
            job_count=args.count,
            workers=args.workers,
            deadline=args.deadline,
            validate=args.validate if args.validate is not None else "safe",
            base_dir=args.base_dir,
            kills=args.kills,
        )
        print(report.summary())
        return 0 if report.ok else 1
    if args.serve:
        report = run_serve_chaos(
            seed=args.seed,
            job_count=args.count,
            workers=args.workers,
            deadline=args.deadline,
            validate=args.validate if args.validate is not None else "safe",
            base_dir=args.base_dir,
        )
        print(report.summary())
        return 0 if report.ok else 1
    report = run_chaos(
        seed=args.seed,
        job_count=args.count,
        rounds=args.rounds,
        workers=args.workers,
        deadline=args.deadline,
        base_dir=args.base_dir,
        validate=args.validate if args.validate is not None else "off",
        ir_faults=args.ir_faults,
    )
    print(report.summary())
    return 0 if report.ok else 1


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` subcommand's interface."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the always-on streaming optimization daemon: "
        "JSON-RPC requests on stdin, responses on stdout (protocol and "
        "operations in docs/serve.md).",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="driver worker processes (default 1: in-process serial)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="global backpressure watermark: admitted-but-unfinished "
        "jobs beyond this are refused with 'busy' (default 64)",
    )
    parser.add_argument(
        "--tenant-quota",
        type=int,
        default=8,
        help="per-tenant in-flight quota; beyond it submissions are "
        "refused with 'quota' (default 8)",
    )
    parser.add_argument(
        "--http",
        type=int,
        metavar="PORT",
        help="serve HTTP on 127.0.0.1:PORT instead of stdio "
        "(0 picks a free port, printed to stderr)",
    )
    parser.add_argument(
        "--journal-dir",
        metavar="DIR",
        help="write-ahead job journal under DIR: every admitted job is "
        "journalled before its admission is acked and replayed at the "
        "next boot if the daemon dies before answering it",
    )
    parser.add_argument(
        "--journal-sync",
        choices=("always", "batch", "off"),
        default="batch",
        help="journal fsync policy: 'always' fsyncs per admission "
        "(power-failure durable), 'batch' fsyncs periodically "
        "(process-death durable), 'off' only flushes (default batch)",
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help="run under a supervisor that restarts the daemon on "
        "abnormal exit (exponential backoff, crash-loop circuit "
        "breaker); pair with --journal-dir so restarts replay "
        "unfinished work",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        help="supervisor circuit breaker: give up after this many "
        "crashes within --restart-window seconds (default 5)",
    )
    parser.add_argument(
        "--restart-window",
        type=float,
        default=60.0,
        help="crash-counting window in seconds for the circuit "
        "breaker (default 60)",
    )
    parser.add_argument(
        "--restart-backoff",
        type=float,
        default=0.25,
        help="base seconds between supervisor restarts, doubling per "
        "recent crash (default 0.25)",
    )
    parser.add_argument(
        "--pid-file",
        metavar="FILE",
        help="publish the live daemon generation's pid (JSON) to FILE "
        "-- under --supervise this tracks each restarted generation",
    )
    add_rolag_options(parser)
    add_driver_options(parser)
    parser.set_defaults(retry_backoff=0.0)
    return parser


#: ``repro serve`` tokens consumed by the supervisor parent and
#: stripped from the child daemon's argv (flag, takes-a-value).
_SUPERVISOR_ONLY_FLAGS = {
    "--supervise": False,
    "--max-restarts": True,
    "--restart-window": True,
    "--restart-backoff": True,
    "--pid-file": True,
}


def _child_serve_args(argv: List[str]) -> List[str]:
    """The serve argv minus supervisor-only tokens."""
    child: List[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        flag, _, inline = token.partition("=")
        if flag in _SUPERVISOR_ONLY_FLAGS:
            skip = _SUPERVISOR_ONLY_FLAGS[flag] and not inline
            continue
        child.append(token)
    return child


def serve_config_from_args(args: argparse.Namespace):
    """The :class:`~repro.serve.ServeConfig` a parsed serve argv boots."""
    from .serve import ServeConfig

    return ServeConfig(
        rolag=rolag_config_from_args(args),
        driver=dict(driver_options_from_args(args), workers=args.workers),
        max_queue=args.max_queue,
        tenant_quota=args.tenant_quota,
        journal_dir=args.journal_dir,
        journal_sync=args.journal_sync,
    )


def run_serve_command(argv: List[str]) -> int:
    """``repro serve ...``: run the daemon until EOF or ``shutdown``."""
    from .serve import OptimizeService, serve_stdio

    args = build_serve_parser().parse_args(argv)
    if args.supervise:
        from .serve.supervisor import run_supervised

        return run_supervised(
            _child_serve_args(argv),
            max_restarts=args.max_restarts,
            restart_window=args.restart_window,
            restart_backoff=args.restart_backoff,
            pid_file=args.pid_file,
        )
    if args.pid_file:
        from .serve.supervisor import write_pid_file

        write_pid_file(args.pid_file, os.getpid(), 1)
    service = OptimizeService(serve_config_from_args(args)).start()
    if args.http is not None:
        import threading

        from .serve.httpd import serve_http

        address_box: dict = {}
        started = threading.Event()
        # serve_http blocks; report the bound port before entering it
        # by seeding the box synchronously via port binding inside.
        thread = threading.Thread(
            target=serve_http,
            args=(service, args.http, started, address_box),
            daemon=True,
        )
        thread.start()
        started.wait(timeout=10.0)
        host, port = address_box.get("address", ("127.0.0.1", args.http))
        print(f"repro serve: ready (http://{host}:{port})", file=sys.stderr)
        thread.join()
        return 0
    return serve_stdio(service)


def build_client_parser() -> argparse.ArgumentParser:
    """The ``repro client`` subcommand's interface."""
    parser = argparse.ArgumentParser(
        prog="repro client",
        description="Spawn a serve daemon, pipeline the given inputs "
        "through it, and print the batch-style results table.  "
        "Arguments after ``--`` are passed to ``repro serve`` "
        "unchanged (e.g. ``-- --workers 4 --validate safe``).",
    )
    parser.add_argument(
        "input", nargs="+", help="IR (.ll) or mini-C source files"
    )
    parser.add_argument(
        "--tenant",
        default="cli",
        help="tenant identity for quota accounting (default 'cli')",
    )
    return parser


def run_client_command(argv: List[str]) -> int:
    """``repro client ...``: one pipelined conversation with a daemon."""
    from .serve import ServeClient, ServeError
    from .serve.protocol import response_error_kind

    if "--" in argv:
        split = argv.index("--")
        argv, serve_args = argv[:split], argv[split + 1:]
    else:
        serve_args = []
    args = build_client_parser().parse_args(argv)

    client = ServeClient.spawn(*serve_args)
    failures = 0
    try:
        tickets = []
        for path in args.input:
            try:
                with open(path) as fh:
                    text = fh.read()
            except OSError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            fmt = "ir" if path.endswith(".ll") else "c"
            tickets.append(
                (
                    path,
                    client.submit_optimize(
                        text,
                        fmt=fmt,
                        tenant=args.tenant,
                        metadata={"source": path},
                    ),
                )
            )
        rows = []
        for path, ticket in tickets:
            response = client.wait(ticket)
            kind = response_error_kind(response)
            if kind is not None:
                rows.append((path, f"refused:{kind}", "-", "-", "-"))
                failures += 1
                continue
            result = response["result"]
            if result["status"] != "ok":
                rows.append(
                    (path, result.get("error_kind") or "error",
                     "-", "-", "-")
                )
                failures += 1
                continue
            rows.append(
                (
                    path,
                    "ok",
                    result["size_before"],
                    result["size_after"],
                    f"{result['reduction_percent']:.1f}%",
                )
            )
        print(
            format_table(
                ["Input", "Status", "Before(B)", "After(B)", "Reduction"],
                rows,
            )
        )
    except ServeError as error:
        print(f"error: serve daemon: {error}", file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0 if failures == 0 else 1


def build_bench_parser() -> argparse.ArgumentParser:
    """The ``repro bench`` subcommand's interface."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run one benchmark suite and record its JSON payload "
        "and text report.",
    )
    parser.add_argument(
        "--suite",
        choices=list(SUITES),
        default="compiled-eval",
        help="which suite to run (default compiled-eval)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (default: the suite's full run)",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="workload size: difftest campaign, corpus functions or "
        "streamed jobs (default: the suite's full run)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink every workload for a fast smoke run; the default "
        "artifact paths become their _quick sidecars",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="where to write the JSON payload (default BENCH_<suite>.json)",
    )
    parser.add_argument(
        "--text",
        metavar="PATH",
        default=None,
        help="where to write the text report (default results/<name>.txt)",
    )
    return parser


def run_bench_command(argv: List[str]) -> int:
    """``repro bench ...``: run and record one suite; exit 1 on a
    failed bar."""
    args = build_bench_parser().parse_args(argv)
    failures = record_suite(
        args.suite,
        seed=args.seed,
        count=args.count,
        quick=args.quick,
        json_path=args.json,
        text_path=args.text,
    )
    for failure in failures:
        print(f"; FAILED: {failure}")
    return 1 if failures else 0


def run_difftest_command(argv: List[str]) -> int:
    """``repro difftest ...``: run a campaign, exit 1 on any mismatch."""
    from .difftest import run_difftest
    from .difftest.oracle import DEFAULT_STEP_LIMIT

    args = build_difftest_parser().parse_args(argv)

    def progress(done: int, total: int) -> None:
        if args.quiet or total == 0:
            return
        if done % 100 == 0 or done == total:
            print(f"; {done}/{total} cases", file=sys.stderr)

    report = run_difftest(
        seed=args.seed,
        count=args.count,
        config=rolag_config_from_args(args),
        vectors_per_case=args.vectors,
        step_limit=args.step_limit or DEFAULT_STEP_LIMIT,
        repro_dir=args.repro_dir,
        progress=progress,
        evaluator=args.evaluator,
        case_deadline=args.case_deadline,
    )
    print(report.summary())
    return 0 if report.ok else 1


def load_module(path: str, optimize: bool) -> Module:
    """Load a module from a .ll or mini-C file."""
    with open(path) as fh:
        source = fh.read()
    if path.endswith(".ll"):
        module = parse_module(source)
        verify_module(module)
        return module
    return compile_c(source, module_name=path, optimize=optimize)


def _parse_run_args(raw: List[str]) -> List[object]:
    values: List[object] = []
    for text in raw:
        try:
            values.append(int(text, 0))
        except ValueError:
            values.append(float(text))
    return values


def run_batch(args: argparse.Namespace) -> int:
    """Optimize several inputs through the parallel, memoizing driver."""
    unsupported = [
        flag
        for flag, given in (
            ("--unroll", args.unroll),
            ("--reroll", args.reroll),
            ("--run", args.run),
            ("--emit-ir", args.emit_ir),
        )
        if given
    ]
    if unsupported:
        print(
            "error: with several inputs only --roll/--size/--stats apply "
            f"(got {', '.join(unsupported)})",
            file=sys.stderr,
        )
        return 1

    jobs: List[FunctionJob] = []
    try:
        for path in args.input:
            with open(path) as fh:
                text = fh.read()
            # ``name`` must stay None (it selects the function to
            # measure); the path rides along as metadata so quarantine
            # entries identify the input, not a placeholder.
            source = (("source", path),)
            if path.endswith(".ll"):
                jobs.append(FunctionJob(name=None, ir_text=text, metadata=source))
            elif args.no_opt:
                # The worker frontend always runs the cleanup pipeline;
                # honour --no-opt by compiling here and shipping IR.
                module = compile_c(text, module_name=path, optimize=False)
                jobs.append(
                    FunctionJob(
                        name=None, ir_text=print_module(module), metadata=source
                    )
                )
            else:
                jobs.append(FunctionJob(name=None, c_source=text, metadata=source))
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    report = optimize_functions(
        jobs,
        rolag_config_from_args(args),
        workers=args.jobs,
        serial_fallback=args.serial_fallback,
        **driver_options_from_args(args),
    )
    rows = []
    for path, result in zip(args.input, report.results):
        if result.failed:
            status = result.error_kind.upper()
        elif result.dedupe_hit:
            status = "dedup"
        else:
            status = "hit" if result.cache_hit else "miss"
        row = [
            path,
            result.size_before,
            result.rolag_size,
            f"{reduction_percent(result.size_before, result.rolag_size):.1f}%",
            result.rolag_rolled,
            status,
        ]
        if args.check_semantics:
            if result.failed:
                row.append("-")
            else:
                row.append("ok" if result.semantics_ok else "MISMATCH")
        rows.append(tuple(row))
    headers = ["Input", "Before(B)", "After(B)", "Reduction", "Rolled", "Cache"]
    if args.check_semantics:
        headers.append("Semantics")
    print(format_table(headers, rows))
    stats = report.stats
    print(
        f"; {stats.jobs} module(s), {stats.workers} worker(s), "
        f"cache hits: {stats.cache_hits}, misses: {stats.cache_misses}, "
        f"dedupe hits: {stats.dedupe_hits}, "
        f"{stats.wall_seconds:.2f}s"
    )
    if (
        stats.failed
        or stats.retried
        or stats.cache_corrupt
        or stats.pool_respawns
    ):
        print(
            f"; failures: {stats.crashed} crashed, "
            f"{stats.timed_out} timed out, "
            f"{stats.quarantined} quarantined | retried: {stats.retried}, "
            f"pool respawns: {stats.pool_respawns}, "
            f"corrupt cache entries: {stats.cache_corrupt}"
        )
    failed_results = [
        (path, result)
        for path, result in zip(args.input, report.results)
        if result.failed
    ]
    for path, result in failed_results:
        print(
            f"; FAILED {path}: [{result.error_kind}] {result.error} "
            f"(attempts: {result.attempts})",
            file=sys.stderr,
        )
    if stats.guard_failures:
        # Rolled-back transactions are the gate *working*, not a run
        # failure: report them without affecting the exit code.
        print(
            f"; guard rollbacks: {stats.guard_failures} "
            "(rejected edits restored to best-known-good IR)"
        )
        from .validation import GuardReport

        for path, result in zip(args.input, report.results):
            for data in result.guard_reports:
                guard = GuardReport.from_json_dict(data)
                print(f"; GUARD {path}: {guard.summary()}", file=sys.stderr)
    if args.stats:
        total_rolled = sum(r.rolag_rolled for r in report.results)
        attempts = sum(r.attempted for r in report.results)
        print(f"; RoLAG rolled {total_rolled} loop(s) in {attempts} attempt(s)")
    if args.check_semantics:
        failures = 0
        for path, result in zip(args.input, report.results):
            for detail in result.semantics_mismatches:
                print(f"; SEMANTICS {path}: {detail}", file=sys.stderr)
                failures += 1
        if failures:
            return 1
    return 1 if failed_results else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "difftest":
        return run_difftest_command(argv[1:])
    if argv and argv[0] == "bench":
        return run_bench_command(argv[1:])
    if argv and argv[0] == "chaos":
        return run_chaos_command(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve_command(argv[1:])
    if argv and argv[0] == "client":
        return run_client_command(argv[1:])
    parser = build_arg_parser()
    args = parser.parse_args(argv)

    if len(args.input) > 1:
        return run_batch(args)

    try:
        module = load_module(args.input[0], optimize=not args.no_opt)
    except (
        OSError, ParseError, VerificationError,
        LexError, CParseError, LowerError,
    ) as error:
        # Unreadable and unparseable inputs exit 1 with a clean
        # diagnostic, the same way batch mode reports bad jobs.
        print(f"error: {error}", file=sys.stderr)
        return 1

    size_before = measure_module(module)

    if args.unroll:
        unrolled = sum(
            unroll_loops(fn, args.unroll)
            for fn in module.functions
            if not fn.is_declaration
        )
        print(f"; unrolled {unrolled} loop(s) by factor {args.unroll}")

    if args.reroll:
        rerolled = sum(
            reroll_loops(fn)
            for fn in module.functions
            if not fn.is_declaration
        )
        print(f"; rerolled {rerolled} loop(s) (LLVM-style baseline)")

    if args.roll:
        config = rolag_config_from_args(args)
        stats = RolagStats()
        rolled = roll_loops_in_module(module, config=config, stats=stats)
        print(f"; RoLAG rolled {rolled} loop(s)")
        if stats.guard_reports:
            from .validation import GuardReport

            print(
                f"; guard rollbacks: {len(stats.guard_reports)} "
                "(rejected edits restored to best-known-good IR)"
            )
            for data in stats.guard_reports:
                guard = GuardReport.from_json_dict(data)
                print(f"; GUARD: {guard.summary()}", file=sys.stderr)
        if args.stats:
            print(f"; attempts: {stats.attempted}, "
                  f"schedule-rejected: {stats.schedule_rejected}, "
                  f"unprofitable: {stats.unprofitable}")
            for kind, count in sorted(stats.node_counts.items()):
                print(f";   node {kind}: {count}")

    verify_module(module)

    if args.check_semantics:
        from .difftest import check_module_semantics
        from .validation import evidence_seed

        original = load_module(args.input[0], optimize=not args.no_opt)
        ok, details = check_module_semantics(
            original,
            module,
            seed=evidence_seed(print_module(original)),
            evaluator=args.evaluator,
        )
        if ok:
            print("; semantics: ok (differential oracle)")
        else:
            for detail in details:
                print(f"; SEMANTICS: {detail}", file=sys.stderr)
            return 1

    if args.size:
        size_after = measure_module(module)
        rows = []
        for name, after in sorted(size_after.per_function.items()):
            before = size_before.per_function.get(name, after)
            rows.append(
                (name, before, after,
                 f"{reduction_percent(before, after):.1f}%")
            )
        print(format_table(["Function", "Before(B)", "After(B)", "Reduction"],
                           rows))
        print(
            f"text: {size_before.text} -> {size_after.text} bytes; "
            f"data: {size_after.data} bytes"
        )

    if args.run:
        fn_name, *raw_args = args.run
        machine = make_machine(module, args.evaluator)
        fn = module.get_function(fn_name)
        if fn is None:
            print(f"error: no function @{fn_name}", file=sys.stderr)
            return 1
        result = machine.call(fn, _parse_run_args(raw_args))
        print(f"; @{fn_name} returned {result!r} "
              f"({machine.steps} instructions executed)")

    if args.emit_ir:
        print(print_module(module))

    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
