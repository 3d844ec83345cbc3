"""Output checks that run outside the timed section.

Every successful output is executed against its input by the reference
interpreter (``evaluator="interp"``), which is independent of the
compiled evaluator tier some workloads optimize with.  The same vectors
also give the dynamic step counts behind ``dynamic_steps_ratio``; step
counts are identical across evaluator backends, so those use the
faster compiled tier.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.difftest.oracle import (
    make_argument_vectors,
    observe_call,
    program_for,
)
from repro.difftest.runner import check_module_semantics
from repro.driver import FunctionJob
from repro.frontend import compile_c
from repro.ir import parse_module

#: Vectors per function, for both the verdict and the step counts.
VECTORS = 3

#: Step budget per observation (``check_module_semantics``' default).
STEP_LIMIT = 200_000


def output_digest(outputs: Iterable[str]) -> str:
    """Hash of the optimized IR texts, in job order."""
    digest = hashlib.sha256()
    for text in outputs:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def load_input(job: FunctionJob):
    """The job's input module, built the way the driver builds it."""
    if job.ir_text is not None:
        return parse_module(job.ir_text)
    return compile_c(job.c_source, module_name=f"driver.{job.name}")


def vector_seed(job: FunctionJob) -> int:
    return zlib.crc32(job.text.encode("utf-8")) & 0x7FFFFFFF


def _steps(module, program, fn_name: str, vectors) -> int:
    return sum(
        observe_call(
            module, fn_name, vector, step_limit=STEP_LIMIT,
            evaluator="compiled", program=program,
        ).steps
        for vector in vectors
    )


@dataclass
class CheckReport:
    """Verdicts over one workload run's outputs."""

    checked: int = 0
    wrong: int = 0
    steps_before: int = 0
    steps_after: int = 0
    details: List[str] = field(default_factory=list)

    @property
    def steps_ratio(self) -> float:
        return self.steps_after / self.steps_before if self.steps_before else 0.0


def check_outputs(pairs: List[Tuple[FunctionJob, str]]) -> CheckReport:
    """Check each ``(input job, optimized IR)`` pair.

    Identical pairs are executed once but counted per job, so a wrong
    answer served ten times from the cache counts ten times.
    """
    report = CheckReport()
    verdicts: Dict[Tuple[str, str], Tuple[bool, int, int, Optional[str]]] = {}
    for job, optimized in pairs:
        key = (job.text, optimized)
        if key not in verdicts:
            verdicts[key] = _check_one(job, optimized)
        ok, before, after, detail = verdicts[key]
        report.checked += 1
        report.steps_before += before
        report.steps_after += after
        if not ok:
            report.wrong += 1
            if len(report.details) < 5:
                report.details.append(f"{job.name}: {detail}")
    return report


def _check_one(job: FunctionJob, optimized: str):
    seed = vector_seed(job)
    try:
        original = load_input(job)
        transformed = parse_module(optimized)
    except Exception as error:  # an unparsable output is a wrong output
        return (False, 0, 0, f"{type(error).__name__}: {error}")
    ok, details = check_module_semantics(
        original, transformed, seed=seed, vectors_per_fn=VECTORS,
        step_limit=STEP_LIMIT, evaluator="interp",
    )
    before = after = 0
    original_program = program_for(original, "compiled")
    transformed_program = program_for(transformed, "compiled")
    for fn in original.functions:
        if fn.is_declaration or transformed.get_function(fn.name) is None:
            continue
        try:
            vectors = make_argument_vectors(fn, seed, VECTORS)
        except ValueError:
            continue
        before += _steps(original, original_program, fn.name, vectors)
        after += _steps(transformed, transformed_program, fn.name, vectors)
    return (ok, before, after, "; ".join(details[:2]) if details else None)
