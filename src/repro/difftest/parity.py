"""Evaluator parity: the compiled tier vs. the reference interpreter.

The differential oracle (``repro.difftest.runner``) checks
*transforms* against the interpreter; this layer turns the same fuzzer corpus into a harness
for the fast evaluator tier (``repro.ir.compile_eval``'s closure
compiler).  Every fuzzed function is observed under both evaluators
on identical argument vectors, and the full
:class:`~repro.difftest.oracle.Observation` must compare **equal** --
not merely :func:`compare_observations`-equivalent.  That pins
results, final global/buffer bytes, extern traces, trap statuses *and
kinds*, and the dynamic step count, which the cost model's profile
guidance relies on.

With ``run_pipeline=True`` each case is additionally pushed through
the full cleanup + reroll + RoLAG pipeline and the transformed module
is held to the same standard, so rolled loops (the IR shape this
repository exists to produce) are always part of the parity corpus.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.verifier import verify_module
from ..rolag.config import RolagConfig
from .fuzzer import FunctionFuzzer, FuzzConfig
from .oracle import (
    DEFAULT_STEP_LIMIT,
    Observation,
    make_argument_vectors,
    observe_call,
    program_for,
)


def _describe_diff(reference: Observation, candidate: Observation) -> str:
    if reference == candidate:
        return "equal"
    parts = []
    for name in (
        "status",
        "result",
        "trap_kind",
        "globals_bytes",
        "buffers",
        "extern_trace",
        "steps",
    ):
        ref = getattr(reference, name)
        cand = getattr(candidate, name)
        if ref != cand:
            parts.append(f"{name}: interp={ref!r} compiled={cand!r}")
    return "; ".join(parts)


def check_backend_parity(
    seed: int,
    count: int,
    vectors_per_case: int = 3,
    step_limit: int = DEFAULT_STEP_LIMIT,
    run_pipeline: bool = True,
    config: Optional[RolagConfig] = None,
    fuzz_config: Optional[FuzzConfig] = None,
) -> List[str]:
    """Observe ``count`` fuzzed cases under both evaluators.

    The compiled tier is compared against the reference interpreter.
    Returns a list of human-readable mismatch descriptions; an empty
    list is the passing verdict.  Timeouts must also agree: both
    evaluators count steps identically, so a budget exhausted under
    one must be exhausted under the other at the same count.
    """
    fuzzer = FunctionFuzzer(seed, fuzz_config)
    mismatches: List[str] = []
    for index in range(count):
        module, fn_name = fuzzer.build(index)
        text = print_module(module)
        variants = [("fuzzed", parse_module(text))]
        if run_pipeline:
            from .runner import default_pipeline

            transformed = parse_module(text)
            try:
                for _stage_name, apply_stage in default_pipeline(config):
                    apply_stage(transformed)
                verify_module(transformed)
            except Exception:
                # A pipeline bug (invalid IR or a raising pass) is the
                # difftest campaign's finding, not an evaluator
                # divergence; skip the variant.
                pass
            else:
                variants.append(("transformed", transformed))

        fn = parse_module(text).get_function(fn_name)
        vectors = make_argument_vectors(
            fn, (seed * 1_000_003 + index) & 0x7FFFFFFF, vectors_per_case
        )
        for variant_name, variant in variants:
            where = f"seed={seed} index={index} {variant_name} @{fn_name}"
            try:
                program = program_for(variant, "compiled")
            except Exception as error:
                mismatches.append(
                    f"{where}: compiled backend failed to build: "
                    f"{type(error).__name__}: {error}"
                )
                continue
            for vector in vectors:
                try:
                    reference = observe_call(
                        variant, fn_name, vector, step_limit=step_limit
                    )
                except Exception as error:
                    mismatches.append(
                        f"{where} {vector.describe()}: evaluator "
                        f"error: {type(error).__name__}: {error}"
                    )
                    continue
                try:
                    candidate = observe_call(
                        variant,
                        fn_name,
                        vector,
                        step_limit=step_limit,
                        evaluator="compiled",
                        program=program,
                    )
                except Exception as error:
                    # An evaluator that raises (backend bug or injected
                    # fault) is itself a parity finding: report it per
                    # vector, structurally, and keep going.
                    mismatches.append(
                        f"{where} {vector.describe()}: compiled "
                        f"evaluator error: {type(error).__name__}: {error}"
                    )
                    continue
                if reference != candidate:
                    mismatches.append(
                        f"{where} {vector.describe()}: "
                        f"{_describe_diff(reference, candidate)}"
                    )
    return mismatches
