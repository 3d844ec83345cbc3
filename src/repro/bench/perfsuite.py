"""Evaluator-backend performance suite (machine-readable).

One entry point, :func:`run_perf_suite`, measures both execution
tiers -- the reference interpreter and the closure-compiling evaluator
(``repro.ir.compile_eval``) -- on the workloads that motivated the
fast tier and returns a plain JSON-serializable dict: the payload behind
``repro bench``, ``benchmarks/emit_bench_json.py`` and
``BENCH_compiled_eval.json``.

Four experiments:

``difftest_campaign``
    ``repro difftest`` end to end under each backend, plus the
    mismatch count (which must be zero).  The campaign also parses,
    prints, rolls and bisects, so by Amdahl's law its speedup is
    bounded by the share of time spent evaluating -- the honest
    whole-campaign number.  A campaign runs for seconds, long enough
    for host speed to drift between two of them, so the backends run
    in :data:`CAMPAIGN_ROUNDS` interleaved rounds, alternating which
    goes first, and the row records the median of the per-round ratios
    (each backend's ``seconds`` is its median run) and every round's
    times.
``oracle_observations``
    The evaluation-dominated slice of the same campaign: repeated
    observations of already-built fuzzer modules (no transforms, one
    parse per case), where backend choice is the whole story.  The
    timed region is short, so the backends alternate over
    :data:`ORACLE_PAIRS` rounds and the row records the median of the
    per-round ratios: load on a shared host slows both halves of a
    round alike.
``tsvc_dynamic``
    Repeated execution of unrolled TSVC kernels -- the fig18/Sec. V-D
    dynamic-step workload in its repeated-measurement shape.  Step
    counts must agree exactly between backends; wall time is the
    payoff.
``parity``
    The fuzzer parity smoke: full Observation equality (status, trap
    kind, memory, extern traces, steps) between the two tiers.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median
from typing import Dict, List, Optional

from ..difftest.fuzzer import FunctionFuzzer
from ..difftest.oracle import (
    make_argument_vectors,
    observe_call,
    program_for,
)
from ..difftest.parity import check_backend_parity
from ..difftest.runner import run_difftest
from ..ir import parse_module, print_module
from ..ir.compile_eval import EVALUATOR_CHOICES, make_machine
from . import tsvc

#: Every measured backend, reference interpreter first.
BACKENDS = tuple(EVALUATOR_CHOICES)


#: Interpreter/compiled rounds of the campaign row; odd, so the median
#: is one round's ratio.
CAMPAIGN_ROUNDS = 3


def _time_difftest(seed: int, count: int) -> Dict[str, object]:
    """The ``difftest_campaign`` row: :data:`CAMPAIGN_ROUNDS`
    interleaved rounds, the interpreter first in even rounds and last
    in odd ones."""
    round_seconds: Dict[str, List[float]] = {b: [] for b in BACKENDS}
    reports = {}
    for index in range(CAMPAIGN_ROUNDS):
        for backend in BACKENDS if index % 2 == 0 else BACKENDS[::-1]:
            start = time.perf_counter()
            reports[backend] = run_difftest(
                seed=seed, count=count, evaluator=backend
            )
            round_seconds[backend].append(time.perf_counter() - start)
    speedups = [
        _speedup(interp, compiled)
        for interp, compiled in zip(
            round_seconds["interp"], round_seconds["compiled"]
        )
    ]
    campaign: Dict[str, object] = {
        "seed": seed,
        "count": count,
        "rounds": len(speedups),
        "round_speedups": speedups,
        "speedup": median(speedups),
    }
    for backend, report in reports.items():
        campaign[backend] = {
            "evaluator": backend,
            "seconds": median(round_seconds[backend]),
            "round_seconds": round_seconds[backend],
            "mismatches": len(report.mismatches),
            "unexplained": len(report.unexplained),
            "rolled_loops": report.rolled_loops,
        }
    return campaign


#: Interpreter/compiled rounds of the oracle row (see the module
#: docstring); odd, so the median is one round's ratio.
ORACLE_PAIRS = 7


def _oracle_cases(seed: int, count: int, vectors_per_case: int = 3) -> list:
    """``(module, fn_name, vectors)`` for ``count`` fuzzed cases."""
    fuzzer = FunctionFuzzer(seed)
    cases = []
    for index in range(count):
        module, fn_name = fuzzer.build(index)
        module = parse_module(print_module(module))
        fn = module.get_function(fn_name)
        vectors = make_argument_vectors(fn, seed + index, vectors_per_case)
        cases.append((module, fn_name, vectors))
    return cases


def _time_oracle_only(cases: list, evaluator: str, repeats: int = 3) -> float:
    """Seconds to observe every case, ``repeats`` sweeps each.

    The cases are fuzzed and parsed *outside* the timed region: this
    isolates evaluation the way the difftest campaign cannot, and the
    repeated sweeps model the bisector/minimizer re-observing one
    module many times.
    """
    start = time.perf_counter()
    for module, fn_name, vectors in cases:
        program = program_for(module, evaluator)
        for _ in range(repeats):
            for vector in vectors:
                observe_call(
                    module,
                    fn_name,
                    vector,
                    evaluator=evaluator,
                    program=program,
                )
    return time.perf_counter() - start


def _time_tsvc_dynamic(
    kernels: List[str], factor: int, evaluator: str, calls: int = 100
) -> Dict[str, object]:
    """Seconds for ``calls`` executions of each unrolled kernel.

    Modules are parsed outside the timed region (the harness measures
    dynamic steps on modules it already holds), and each kernel keeps
    one machine across calls -- the repeated-measurement shape of
    Sec. V-D sweeps and cache-warm reruns.  The recorded per-kernel
    step counts come from the first call on the fresh machine, which
    is the number the exhibits use.
    """
    modules = [
        (name, parse_module(print_module(tsvc.build_unrolled_kernel(name, factor))))
        for name in kernels
    ]
    steps: Dict[str, int] = {}
    start = time.perf_counter()
    for name, module in modules:
        program = program_for(module, evaluator)
        machine = make_machine(module, evaluator, program=program)
        tsvc.init_machine(machine)
        fn = module.get_function(name)
        machine.call(fn, [])
        steps[name] = machine.steps
        for _ in range(calls - 1):
            machine.call(fn, [])
    return {
        "evaluator": evaluator,
        "calls": calls,
        "seconds": time.perf_counter() - start,
        "total_steps": sum(steps.values()),
        "steps": steps,
    }


def _speedup(reference: float, candidate: float) -> float:
    return reference / candidate if candidate else 0.0


def run_perf_suite(
    seed: int = 0,
    difftest_count: int = 2000,
    oracle_count: int = 150,
    parity_count: int = 200,
    tsvc_factor: int = 16,
    tsvc_kernels: Optional[List[str]] = None,
    tsvc_calls: int = 100,
    quick: bool = False,
) -> Dict[str, object]:
    """Measure both evaluator tiers on each workload.

    ``quick`` shrinks every count for smoke-test runs; the saved JSON
    records the effective sizes either way so numbers are never
    compared across different workloads silently.
    """
    if quick:
        difftest_count = min(difftest_count, 100)
        oracle_count = min(oracle_count, 30)
        parity_count = min(parity_count, 30)
        tsvc_calls = min(tsvc_calls, 10)

    kernels = tsvc_kernels or tsvc.kernel_names()[:12]

    campaign = _time_difftest(seed, difftest_count)

    cases = _oracle_cases(seed, oracle_count)
    rounds = [
        {backend: _time_oracle_only(cases, backend) for backend in BACKENDS}
        for _ in range(ORACLE_PAIRS)
    ]
    oracle = {
        "seed": seed,
        "count": oracle_count,
        "pairs": ORACLE_PAIRS,
        "interp_seconds": median(r["interp"] for r in rounds),
        "compiled_seconds": median(r["compiled"] for r in rounds),
        "speedup": median(
            _speedup(r["interp"], r["compiled"]) for r in rounds
        ),
    }

    tsvc_runs = {
        backend: _time_tsvc_dynamic(kernels, tsvc_factor, backend, tsvc_calls)
        for backend in BACKENDS
    }
    tsvc_dynamic = {
        "kernels": kernels,
        "factor": tsvc_factor,
        "steps_equal": all(
            tsvc_runs[backend]["steps"] == tsvc_runs["interp"]["steps"]
            for backend in BACKENDS
        ),
        "speedup": _speedup(
            tsvc_runs["interp"]["seconds"], tsvc_runs["compiled"]["seconds"]
        ),
    }
    tsvc_dynamic.update(tsvc_runs)

    parity_mismatches = check_backend_parity(seed, parity_count)
    parity = {
        "seed": seed,
        "count": parity_count,
        "mismatches": len(parity_mismatches),
        "details": parity_mismatches[:10],
    }

    return {
        "suite": "compiled_eval",
        "quick": quick,
        "difftest_campaign": campaign,
        "oracle_observations": oracle,
        "tsvc_dynamic": tsvc_dynamic,
        "parity": parity,
    }


def write_bench_json(
    path: str, results: Dict[str, object], force: bool = False
) -> bool:
    """Write one perf-suite payload, refusing quick-over-full clobbers.

    A ``--bench-quick`` run measures smoke-sized workloads; letting it
    silently replace a full-run ``BENCH_*.json`` poisons trend
    tracking (it happened: a committed payload carried
    ``"quick": true``).  A quick payload aimed at a path holding a
    full-run payload is therefore diverted to a ``*_quick.json``
    sidecar unless ``force`` is set.  Returns ``True`` when ``path``
    itself was written, ``False`` when the sidecar was used.
    """
    diverted = False
    if results.get("quick") and not force and os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict) and not existing.get("quick", False):
            base, ext = os.path.splitext(path)
            path = f"{base}_quick{ext or '.json'}"
            diverted = True
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if diverted:
        print(
            f"; quick run diverted to {path} "
            "(existing full-run payload preserved; pass --force to overwrite)"
        )
    return not diverted


def render_perf_suite(results: Dict[str, object]) -> str:
    """A human-readable report of one :func:`run_perf_suite` payload."""
    from .reporting import format_table

    campaign = results["difftest_campaign"]
    oracle = results["oracle_observations"]
    tsvc_dyn = results["tsvc_dynamic"]
    parity = results["parity"]
    rows = [
        (
            f"repro difftest --seed {campaign['seed']} "
            f"--count {campaign['count']}",
            f"{campaign['interp']['seconds']:.2f}s",
            f"{campaign['compiled']['seconds']:.2f}s",
            f"{campaign['speedup']:.2f}x",
        ),
        (
            f"oracle observations ({oracle['count']} fuzzed cases, "
            f"repeated sweeps)",
            f"{oracle['interp_seconds']:.2f}s",
            f"{oracle['compiled_seconds']:.2f}s",
            f"{oracle['speedup']:.2f}x",
        ),
        (
            f"TSVC dynamic execution ({len(tsvc_dyn['kernels'])} kernels, "
            f"factor {tsvc_dyn['factor']}, x{tsvc_dyn['interp']['calls']})",
            f"{tsvc_dyn['interp']['seconds']:.2f}s",
            f"{tsvc_dyn['compiled']['seconds']:.2f}s",
            f"{tsvc_dyn['speedup']:.2f}x",
        ),
    ]
    lines = ["Evaluator backends vs reference interpreter"]
    lines.append(
        format_table(
            ["Workload", "interp", "compiled", "speedup"],
            rows,
        )
    )
    lines.append(
        "difftest mismatches: "
        + " ".join(
            f"{backend}={campaign[backend]['mismatches']}"
            for backend in BACKENDS
        )
    )
    lines.append(
        f"TSVC step counts identical across backends: "
        f"{tsvc_dyn['steps_equal']}"
    )
    lines.append(
        f"parity smoke ({parity['count']} fuzz cases, full Observation "
        f"equality incl. traps/extern traces/steps): "
        f"{parity['mismatches']} mismatches"
    )
    lines.append(
        "note: the difftest campaign also parses, prints, rolls and "
        "bisects; its speedup is bounded by the evaluation share of "
        "campaign time (Amdahl), unlike the evaluation-dominated rows."
    )
    return "\n".join(lines)
