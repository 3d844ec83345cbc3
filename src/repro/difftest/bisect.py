"""Pass-level bisection and repro minimization.

When the oracle finds a mismatch between an original function and its
fully-transformed version, :func:`bisect_pipeline` replays the same
pipeline one pass at a time from the original IR text, observing after
every pass with the campaign's own primitives
(:func:`~repro.difftest.runner.capture_pairs`,
:func:`~repro.difftest.runner.first_mismatch`), and names the first
pass whose output diverges from the original behaviour.
:func:`minimize_record` then shrinks the pre-guilty-pass IR by
deleting use-free instructions while the mismatch persists, producing
a small, parseable repro
(:meth:`MismatchRecord.to_text`) suitable for checking into
``tests/repros/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..faultinject import DeadlineExceeded
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.verifier import VerificationError, verify_module
from .oracle import (
    ArgumentVector,
    DEFAULT_STEP_LIMIT,
    Observation,
    program_for,
)

#: A named module transformation, e.g. ``("dce", run_dce_on_module)``.
PipelineStage = Tuple[str, Callable[[Module], object]]


@dataclass
class MismatchRecord:
    """Everything needed to reproduce one miscompile."""

    fn_name: str
    stage: str
    vector: ArgumentVector
    detail: str
    #: Parseable IR entering the guilty pass (the actual repro input).
    ir_before: str
    #: IR the guilty pass produced.
    ir_after: str
    expected: Observation
    actual: Observation
    #: Where the case came from (fuzzer seed/index, corpus path, ...).
    origin: str = ""
    notes: List[str] = field(default_factory=list)

    def to_text(self) -> str:
        """A self-describing repro file: comments + parseable IR.

        The IR section parses with :func:`repro.ir.parse_module`; the
        leading ``;`` comments record how to replay it (see
        ``docs/difftest.md``).
        """
        lines = [
            "; difftest mismatch repro",
            f"; origin: {self.origin or 'unknown'}",
            f"; function: @{self.fn_name}",
            f"; guilty pass: {self.stage}",
            f"; vector: {self.vector.describe()}",
            f"; expected: {self.expected.summary()}",
            f"; actual (after {self.stage}): {self.actual.summary()}",
            f"; detail: {self.detail}",
        ]
        lines += [f"; note: {note}" for note in self.notes]
        lines.append(";")
        lines.append("; IR entering the guilty pass:")
        lines.append("")
        lines.append(self.ir_before.rstrip("\n"))
        lines.append("")
        return "\n".join(lines)


def bisect_pipeline(
    ir_text: str,
    fn_name: str,
    stages: Sequence[PipelineStage],
    vectors: Sequence[ArgumentVector],
    step_limit: int = DEFAULT_STEP_LIMIT,
    origin: str = "",
    evaluator: str = "interp",
) -> Optional[MismatchRecord]:
    """Replay ``stages`` over ``ir_text`` and name the first guilty pass.

    The original is observed on ``vectors`` once
    (:func:`~repro.difftest.runner.capture_pairs`) and every stage's
    output is held to those pairs with
    :func:`~repro.difftest.runner.first_mismatch`, the campaign's own
    comparison.  Returns None when no stage diverges (the end-to-end
    mismatch did not reproduce -- which itself indicates nondeterminism
    and is reported by the caller).  An evaluator that raises, on the
    original or on a stage's output, raises ``RuntimeError``: that is
    no verdict on a pass.
    """
    from .runner import capture_pairs, first_mismatch

    original = parse_module(ir_text)
    reference, error = capture_pairs(
        original, fn_name, vectors, step_limit=step_limit,
        evaluator=evaluator, program=program_for(original, evaluator),
    )
    if error is not None:
        raise RuntimeError(f"original @{fn_name} {error}")

    module = parse_module(ir_text)
    for stage_name, apply_stage in stages:
        before_text = print_module(module)
        try:
            apply_stage(module)
            verify_module(module)
        except DeadlineExceeded:
            raise
        except VerificationError as error:
            # A pass that corrupts the IR is guilty by definition.
            return MismatchRecord(
                fn_name=fn_name,
                stage=stage_name,
                vector=vectors[0],
                detail=f"verifier: {error}",
                ir_before=before_text,
                ir_after=print_module(module),
                expected=reference[0][1],
                actual=Observation(status="trap", trap_kind="invalid-ir"),
                origin=origin,
            )
        except Exception as error:
            # So is a pass that raises outright (including injected
            # faults): name it instead of surfacing a bare traceback.
            return MismatchRecord(
                fn_name=fn_name,
                stage=stage_name,
                vector=vectors[0],
                detail=f"stage raised: {type(error).__name__}: {error}",
                ir_before=before_text,
                ir_after=print_module(module),
                expected=reference[0][1],
                actual=Observation(status="trap", trap_kind="stage-error"),
                origin=origin,
            )
        # Fresh program per stage: the stage just mutated the module.
        mismatch = first_mismatch(
            module, fn_name, reference, step_limit=step_limit,
            evaluator=evaluator, program=program_for(module, evaluator),
        )
        if mismatch is not None:
            detail, vector, expected, actual = mismatch
            if actual is None:
                raise RuntimeError(f"@{fn_name} after {stage_name}: {detail}")
            return MismatchRecord(
                fn_name=fn_name,
                stage=stage_name,
                vector=vector,
                detail=detail,
                ir_before=before_text,
                ir_after=print_module(module),
                expected=expected,
                actual=actual,
                origin=origin,
            )
    return None


def _mismatch_for(
    ir_text: str,
    fn_name: str,
    stages: Sequence[PipelineStage],
    vectors: Sequence[ArgumentVector],
    step_limit: int,
    evaluator: str = "interp",
) -> Optional[MismatchRecord]:
    try:
        return bisect_pipeline(
            ir_text, fn_name, stages, vectors, step_limit, evaluator=evaluator
        )
    except Exception:  # malformed candidate: not a usable reduction
        return None


def minimize_record(
    record: MismatchRecord,
    stages: Sequence[PipelineStage],
    step_limit: int = DEFAULT_STEP_LIMIT,
    max_rounds: int = 8,
    evaluator: str = "interp",
) -> MismatchRecord:
    """Shrink the repro while the mismatch persists.

    Two reductions are attempted, both validated by re-running the full
    bisection on the candidate: narrowing to the single mismatching
    vector, then repeatedly deleting use-free non-terminator
    instructions (and unread globals) from the original IR.  The guilty
    pass may legitimately shift during reduction; the record always
    reflects the final replay.
    """
    best = record
    vectors = [record.vector]
    current_text = record.ir_before

    reduced = _mismatch_for(
        current_text, record.fn_name, stages, vectors, step_limit, evaluator
    )
    if reduced is None:
        return best
    reduced.origin = record.origin
    best = reduced
    current_text = best.ir_before if _is_smaller(best, record) else current_text

    for _ in range(max_rounds):
        shrunk = _shrink_once(
            current_text, record.fn_name, stages, vectors, step_limit, evaluator
        )
        if shrunk is None:
            break
        current_text, best = shrunk
        best.origin = record.origin
    best.notes.append("minimized: use-free instruction shaving")
    return best


def _is_smaller(candidate: MismatchRecord, reference: MismatchRecord) -> bool:
    return len(candidate.ir_before) <= len(reference.ir_before)


def _shrink_once(
    ir_text: str,
    fn_name: str,
    stages: Sequence[PipelineStage],
    vectors: Sequence[ArgumentVector],
    step_limit: int,
    evaluator: str = "interp",
) -> Optional[Tuple[str, MismatchRecord]]:
    """Try deleting one use-free instruction; keep the first that works."""
    module = parse_module(ir_text)
    fn = module.get_function(fn_name)
    if fn is None:
        return None
    candidates = []
    for block in fn.blocks:
        for position, inst in enumerate(block.instructions):
            if inst.is_terminator or inst.uses:
                continue
            candidates.append((block.name, position))
    for block_name, position in reversed(candidates):
        candidate_module = parse_module(ir_text)
        candidate_fn = candidate_module.get_function(fn_name)
        target_block = next(
            (b for b in candidate_fn.blocks if b.name == block_name), None
        )
        if target_block is None or position >= len(target_block.instructions):
            continue
        target_block.instructions[position].erase_from_parent()
        try:
            verify_module(candidate_module)
        except VerificationError:
            continue
        candidate_text = print_module(candidate_module)
        record = _mismatch_for(
            candidate_text, fn_name, stages, vectors, step_limit, evaluator
        )
        if record is not None:
            return candidate_text, record
    return None
