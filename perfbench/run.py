#!/usr/bin/env python3
"""The repository's benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-angha --seed 1 \\
        --seconds 10 --trace 0

Workloads (inputs generated from ``--seed``; see ``workloads.py``):

``campaign-angha``  stratified Angha mini-C batch, two-worker pool,
                    cold structural cache (paper Fig. 15);
``tsvc-checked``    TSVC kernels unrolled 4/8/16 as IR, validated and
                    oracle-checked, no cache (Fig. 17/18, Sec. V-D);
``serve-mixed``     a spawned ``repro serve`` daemon under a closed
                    loop of two outstanding requests, a quarter of them
                    alpha-renamed copies and a quarter exact repeats.

``--trace 0`` measures the end-to-end metrics with tracing off; their
times are scaled to a reference host speed timed in the same run (see
``speed.py``), because a shared host's own speed drifts more than the
bounds allow.  ``--trace 1`` gives the per-layer metrics from a
separate traced run; those times are raw.
Metric names, units and directions are declared in ``BENCHMARK.json``
at the root, which this script reads.  Outputs are checked outside the
timed section; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A run is correct
only with no wrong output, no leaked process, no nondeterminism and,
when traced, no drifted replay and no missing span.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_NAMES = ("campaign-angha", "tsvc-checked", "serve-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", type=int, default=None,
        help="jobs per batch or requests per pass (default: the "
        "workload's full size; the self-tests use tiny ones)",
    )
    return parser.parse_args(argv)


def declared_metrics(trace: bool):
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(args, guard, workdir):
    if args.workload == "serve-mixed":
        from perfbench.serve_load import run_serve

        return run_serve(
            args.seed, args.seconds, bool(args.trace), workdir, guard,
            size=args.size,
        )
    from perfbench.batch import run_batch

    return run_batch(
        args.workload, args.seed, args.seconds, bool(args.trace), workdir,
        size=args.size,
    )


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC):
        print(f"perfbench: {SPEC} is missing", file=sys.stderr)
        return 2
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.procs import ProcessGuard

    guard = ProcessGuard()
    guard.install_signal_handlers()
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    # Temporary files of this process and every program it starts stay
    # inside the checkout and go with the work dir.
    os.environ["TMPDIR"] = workdir
    outcome = None
    try:
        outcome = run_workload(args, guard, workdir)
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        return 130
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        leaked = guard.sweep()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's work dir is still there

    values = dict(outcome.metrics)
    values["check.wrong_outputs"] = float(outcome.wrong)
    values["check.failed_fraction"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 0.0
    )
    values["check.leaked_processes"] = float(leaked)
    metrics = {}
    for spec in declared_metrics(bool(args.trace)):
        name = spec["name"]
        if name not in values and not args.trace:
            outcome.problems.append(f"metric {name} was not measured")
        # Per-layer metrics of a layer the workload never enters are 0.
        metrics[name] = {"value": values.get(name, 0.0), "unit": spec["unit"]}
    correct = outcome.wrong == 0 and leaked == 0 and not outcome.problems
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    detail = dict(
        outcome.info, workload=args.workload, seed=args.seed,
        generator=workload.generator, concurrency=workload.concurrency,
        why=workload.why,
        trace=args.trace, wrong_outputs=outcome.wrong,
        failed_fraction=values["check.failed_fraction"],
        leaked_processes=leaked, problems=outcome.problems,
    )
    print("perfbench detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
