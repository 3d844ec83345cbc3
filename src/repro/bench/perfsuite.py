"""Evaluator-backend performance suite (machine-readable).

One entry point, :func:`run`, measures both execution tiers -- the
reference interpreter and the closure-compiling evaluator
(``repro.ir.compile_eval``) -- on the workloads that motivated the
fast tier and returns a plain JSON-serializable dict: the
``compiled-eval`` suite of :mod:`repro.bench.record`, which
``repro bench`` and ``benchmarks/bench_ext_compiled_eval.py`` record
as ``BENCH_compiled_eval.json`` and ``results/ext_compiled_eval.txt``.

Each timed row is a speedup (interpreter time over compiled time)
from :func:`repro.bench.paired.time_pairs`: the backends run in
alternating pairs, the row's ``speedup`` is the median of the
per-pair speedups, each backend's ``seconds`` is its median run, and
``timing`` holds every pair's values.  Four experiments:

``difftest_campaign``
    ``repro difftest`` end to end under each backend, plus the
    mismatch count (which must be zero).  The campaign also parses,
    prints, rolls and bisects, so by Amdahl's law its speedup is
    bounded by the share of time spent evaluating -- the honest
    whole-campaign number, reported without a bar.
``oracle_observations``
    The evaluation-dominated slice of the same campaign: repeated
    observations of already-built fuzzer modules (no transforms, one
    parse per case), where backend choice is the whole story.
``tsvc_dynamic``
    Repeated execution of unrolled TSVC kernels -- the fig18/Sec. V-D
    dynamic-step workload in its repeated-measurement shape.  Step
    counts must agree exactly across every run of both backends; wall
    time is the payoff.
``parity``
    The fuzzer parity smoke: full Observation equality (status, trap
    kind, memory, extern traces, steps) between the two tiers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

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
from .paired import PairedTiming, describe_pairs, time_pairs

#: Every measured backend, reference interpreter first: side A of
#: each paired row.
BACKENDS = tuple(EVALUATOR_CHOICES)

#: Full-run speedup bars, only where evaluation dominates: hot-loop
#: execution (the TSVC row) runs about 5x faster, while fuzzed oracle
#: cases are tiny (hundreds of steps), so fresh per-observation
#: machine setup bounds that row far lower.
MIN_ORACLE_SPEEDUP = 1.5
MIN_TSVC_SPEEDUP = 3.0

#: The full run's workload seed and difftest campaign size, and the
#: artifacts :func:`repro.bench.record.record_suite` writes.
SEED = 0
COUNT = 2000
JSON = "BENCH_compiled_eval.json"
TEXT = "ext_compiled_eval.txt"


def _backend_row(
    measure: Callable[[str], object], **fields
) -> Tuple[Dict[str, object], PairedTiming]:
    """Time ``measure(backend)`` on the interpreter (side A) against the
    compiled tier (side B): the row with the median speedup, each
    backend's median seconds and every pair's values, and the timing
    with each call's result."""
    interp, compiled = BACKENDS
    timing = time_pairs(lambda: measure(interp), lambda: measure(compiled))
    row = dict(fields, speedup=timing.ratio, timing=timing.to_json())
    for backend, side in zip(BACKENDS, ("a", "b")):
        row[backend] = {"evaluator": backend, "seconds": timing.seconds(side)}
    return row, timing


def _campaign_row(seed: int, count: int) -> Dict[str, object]:
    """The ``difftest_campaign`` row: whole campaigns, paired."""
    campaign, timing = _backend_row(
        lambda evaluator: run_difftest(seed, count, evaluator=evaluator),
        seed=seed,
        count=count,
    )
    for backend, runs in zip(BACKENDS, (timing.a, timing.b)):
        reports = [run.result for run in runs]
        campaign[backend].update(
            mismatches=max(len(r.mismatches) for r in reports),
            unexplained=max(len(r.unexplained) for r in reports),
            rolled_loops=reports[-1].rolled_loops,
        )
    return campaign


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


def _observe_all(cases: list, evaluator: str, repeats: int = 3) -> None:
    """Observe every case, ``repeats`` sweeps each.

    The cases are fuzzed and parsed before timing starts: this
    isolates evaluation the way the difftest campaign cannot, and the
    repeated sweeps model the bisector/minimizer re-observing one
    module many times.
    """
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


def _run_tsvc_kernels(
    modules: list, evaluator: str, calls: int
) -> Dict[str, int]:
    """``calls`` executions of each unrolled kernel; returns each
    kernel's step count.

    The modules are parsed before timing starts (the harness measures
    dynamic steps on modules it already holds), and each kernel keeps
    one machine across calls -- the repeated-measurement shape of
    Sec. V-D sweeps and cache-warm reruns.  The step counts come from
    the first call on the fresh machine, which is the number the
    exhibits use.
    """
    steps: Dict[str, int] = {}
    for name, module in modules:
        program = program_for(module, evaluator)
        machine = make_machine(module, evaluator, program=program)
        tsvc.init_machine(machine)
        fn = module.get_function(name)
        machine.call(fn, [])
        steps[name] = machine.steps
        for _ in range(calls - 1):
            machine.call(fn, [])
    return steps


def run(
    seed: int = SEED,
    count: int = COUNT,
    oracle_count: int = 150,
    parity_count: int = 200,
    tsvc_factor: int = 16,
    tsvc_kernels: Optional[List[str]] = None,
    tsvc_calls: int = 100,
    quick: bool = False,
) -> Dict[str, object]:
    """Measure both evaluator tiers on each workload; ``count`` is the
    difftest campaign's size.

    ``quick`` shrinks every count for smoke-test runs; the saved JSON
    records the effective sizes either way so numbers are never
    compared across different workloads silently.
    """
    if quick:
        count = min(count, 100)
        oracle_count = min(oracle_count, 30)
        parity_count = min(parity_count, 30)
        tsvc_calls = min(tsvc_calls, 10)

    kernels = tsvc_kernels or tsvc.kernel_names()[:12]

    campaign = _campaign_row(seed, count)

    cases = _oracle_cases(seed, oracle_count)
    oracle, _ = _backend_row(
        lambda backend: _observe_all(cases, backend),
        seed=seed,
        count=oracle_count,
    )

    modules = [
        (name, parse_module(print_module(
            tsvc.build_unrolled_kernel(name, tsvc_factor)
        )))
        for name in kernels
    ]
    tsvc_dynamic, timing = _backend_row(
        lambda backend: _run_tsvc_kernels(modules, backend, tsvc_calls),
        kernels=kernels,
        factor=tsvc_factor,
        calls=tsvc_calls,
    )
    steps = [run.result for run in timing.a + timing.b]
    tsvc_dynamic["steps"] = steps[0]
    tsvc_dynamic["steps_equal"] = all(s == steps[0] for s in steps)

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


def failed_bars(results: Dict[str, object]) -> List[str]:
    """Every bar a :func:`run` payload misses, one message
    each; empty when every bar holds.  The correctness bars are
    absolute; the speedup bars skip quick runs, too small to time."""
    campaign, parity = results["difftest_campaign"], results["parity"]
    checks = [
        (campaign[b][kind] == 0, f"difftest {b}: {campaign[b][kind]} {kind}")
        for b in BACKENDS
        for kind in ("mismatches", "unexplained")
    ]
    checks += [
        (parity["mismatches"] == 0, f"parity: {parity['details']}"),
        (results["tsvc_dynamic"]["steps_equal"], "TSVC step counts differ"),
    ]
    for row, bar in (
        ("oracle_observations", MIN_ORACLE_SPEEDUP),
        ("tsvc_dynamic", MIN_TSVC_SPEEDUP),
    ):
        speedup = results[row]["speedup"]
        checks.append((
            results["quick"] or speedup >= bar,
            f"{row} speedup {speedup:.2f}x below {bar:.1f}x bar",
        ))
    return [message for holds, message in checks if not holds]


def render(results: Dict[str, object]) -> str:
    """A human-readable report of one :func:`run` payload."""
    from .reporting import format_table

    campaign = results["difftest_campaign"]
    oracle = results["oracle_observations"]
    tsvc_dyn = results["tsvc_dynamic"]
    parity = results["parity"]
    rows = [
        (
            f"repro difftest --seed {campaign['seed']} "
            f"--count {campaign['count']}",
            campaign,
        ),
        (
            f"oracle observations ({oracle['count']} fuzzed cases, "
            f"repeated sweeps)",
            oracle,
        ),
        (
            f"TSVC dynamic execution ({len(tsvc_dyn['kernels'])} kernels, "
            f"factor {tsvc_dyn['factor']}, x{tsvc_dyn['calls']})",
            tsvc_dyn,
        ),
    ]
    lines = ["Evaluator backends vs reference interpreter"]
    lines.append(
        format_table(
            ["Workload", "interp", "compiled", "speedup"],
            [
                (
                    label,
                    f"{row['interp']['seconds']:.2f}s",
                    f"{row['compiled']['seconds']:.2f}s",
                    f"{row['speedup']:.2f}x",
                )
                for label, row in rows
            ],
        )
    )
    lines.append(
        "per-pair speedups (median seconds above; pairs alternate "
        "which backend runs first):"
    )
    for label, row in rows:
        lines.append(f"  {label}: {describe_pairs(row['timing'])}")
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
