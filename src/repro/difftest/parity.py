"""Evaluator parity: the compiled tier vs. the reference interpreter.

The differential oracle (``repro.difftest.runner``) checks
*transforms* against one backend; this sweep turns the same fuzzer
corpus into a harness for the fast evaluator tier
(``repro.ir.compile_eval``'s closure compiler).  Every fuzzed function
is held to the backend-parity rule,
:func:`~repro.difftest.runner.first_backend_divergence`, on its
campaign draw: the full :class:`~repro.difftest.oracle.Observation`
under both evaluators must compare **equal** -- results, final
global/buffer bytes, extern traces, trap statuses *and kinds*, and the
dynamic step count, which the cost model's profile guidance relies on
(a NaN result or extern argument matches a NaN).
The ``strict`` validation gate applies the same rule to every
candidate.

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
from .oracle import DEFAULT_STEP_LIMIT, make_argument_vectors
from .runner import case_seed, default_pipeline, first_backend_divergence


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

    Returns one human-readable description per variant (fuzzed, and
    transformed with ``run_pipeline``) that diverges on some vector,
    naming the first such vector; an empty list is the passing
    verdict.  A backend that fails to load a variant or raises is an
    entry too.  Timeouts must also agree: both evaluators count steps
    identically, so a budget exhausted under one must be exhausted
    under the other at the same count.
    """
    fuzzer = FunctionFuzzer(seed, fuzz_config)
    stages = default_pipeline(config) if run_pipeline else []
    mismatches: List[str] = []
    for index in range(count):
        module, fn_name = fuzzer.build(index)
        text = print_module(module)
        fuzzed = parse_module(text)
        variants = [("fuzzed", fuzzed)]
        if run_pipeline:
            transformed = parse_module(text)
            try:
                for _stage_name, apply_stage in stages:
                    apply_stage(transformed)
                verify_module(transformed)
            except Exception:
                # A pipeline bug (invalid IR or a raising pass) is the
                # difftest campaign's finding, not an evaluator
                # divergence; skip the variant.
                pass
            else:
                variants.append(("transformed", transformed))

        vectors = make_argument_vectors(
            fuzzed.get_function(fn_name), case_seed(seed, index),
            vectors_per_case,
        )
        for variant_name, variant in variants:
            divergence = first_backend_divergence(
                variant, fn_name, vectors, step_limit=step_limit
            )
            if divergence is not None:
                mismatches.append(
                    f"seed={seed} index={index} {variant_name} "
                    f"@{fn_name}: {divergence[0]}"
                )
    return mismatches
