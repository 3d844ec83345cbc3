"""Differential-testing campaigns and the driver's semantics check.

:func:`run_difftest` is the ``repro difftest`` engine: fuzz ``count``
functions, push each through the full cleanup + reroll + RoLAG
pipeline, and compare observable behaviour on several argument vectors.
Every end-to-end divergence is bisected to the guilty pass and
minimized; anything that diverges end-to-end but fails to re-bisect is
reported as *unexplained* (the acceptance bar is zero of those).

:class:`Evidence` is one job's observations of its original module,
captured once; the driver's oracle and both validation gates compare
candidates against it (:func:`check_module_semantics` does both steps).

This module is the one place that observes and compares.  The
campaign, the bisector, the gate, the oracle and the backend-parity
sweep all go through three functions: :func:`capture_pairs` observes a
reference on explicit vectors (:meth:`Evidence.capture` draws them),
:func:`first_mismatch` holds a candidate to a reference, and
:func:`first_backend_divergence` holds the two evaluators to each other.
"""

from __future__ import annotations

import operator
import os
import zlib
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faultinject import DeadlineExceeded, deadline_scope
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..ir.verifier import VerificationError, verify_module
from ..rolag.config import RolagConfig
from ..transforms import default_cleanup_pipeline, reroll_loops
from ..rolag.pipeline import roll_loops_in_module
from .bisect import MismatchRecord, PipelineStage, bisect_pipeline, minimize_record
from .fuzzer import FunctionFuzzer, FuzzConfig
from .oracle import (
    DEFAULT_STEP_LIMIT,
    ArgumentVector,
    Observation,
    _same_trace,
    _same_value,
    compare_observations,
    make_argument_vectors,
    observe_call,
    program_for,
)


def _per_function(fn_pass: Callable) -> Callable[[Module], int]:
    def apply(module: Module) -> int:
        total = 0
        for fn in module.functions:
            if not fn.is_declaration:
                total += fn_pass(fn)
        return total

    return apply


def default_pipeline(config: Optional[RolagConfig] = None) -> List[PipelineStage]:
    """The pipeline the size evaluation runs, as named difftest stages.

    Mirrors the driver: the -Os style cleanup pipeline, the reroll
    baseline, then RoLAG itself.  Per-stage verification is left to the
    caller (the campaign verifies after the whole pipeline and the
    bisector verifies after every stage).
    """
    config = config if config is not None else RolagConfig()
    stages: List[PipelineStage] = [
        (name, _per_function(fn_pass))
        for name, fn_pass in default_cleanup_pipeline().passes
    ]
    stages.append(("reroll", _per_function(reroll_loops)))
    stages.append(
        ("rolag", lambda module: roll_loops_in_module(module, config=config))
    )
    return stages


@dataclass
class DifftestReport:
    """Outcome of one fuzzing campaign."""

    seed: int
    cases: int
    vectors_per_case: int
    mismatches: List[MismatchRecord] = field(default_factory=list)
    #: End-to-end divergences that did not reproduce under per-pass
    #: replay -- a sign of nondeterminism, never acceptable.
    unexplained: List[str] = field(default_factory=list)
    #: Cases the campaign could not complete: a pipeline stage or the
    #: evaluator raised, or the per-case deadline expired.  Structured
    #: (origin + exception) instead of a traceback taking the run down.
    errors: List[str] = field(default_factory=list)
    trap_cases: int = 0
    timeout_cases: int = 0
    rolled_loops: int = 0
    repro_paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.mismatches
            and not self.unexplained
            and not self.errors
        )

    def summary(self) -> str:
        lines = [
            f"difftest: {self.cases} cases, seed {self.seed}, "
            f"{self.vectors_per_case} vectors/case",
            f"  rolled loops: {self.rolled_loops}",
            f"  cases observing a trap: {self.trap_cases}",
            f"  inconclusive (timeout) observations: {self.timeout_cases}",
            f"  mismatches: {len(self.mismatches)}"
            f" | unexplained: {len(self.unexplained)}"
            f" | errors: {len(self.errors)}",
        ]
        for record in self.mismatches:
            lines.append(
                f"  MISMATCH {record.origin}: pass '{record.stage}' -- "
                f"{record.detail}"
            )
        for note in self.unexplained:
            lines.append(f"  UNEXPLAINED {note}")
        for note in self.errors:
            lines.append(f"  ERROR {note}")
        for path in self.repro_paths:
            lines.append(f"  repro written: {path}")
        if self.ok:
            lines.append("  OK: no unexplained mismatches")
        return "\n".join(lines)


def run_difftest(
    seed: int,
    count: int,
    config: Optional[RolagConfig] = None,
    fuzz_config: Optional[FuzzConfig] = None,
    vectors_per_case: int = 3,
    step_limit: int = DEFAULT_STEP_LIMIT,
    repro_dir: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    evaluator: str = "interp",
    case_deadline: Optional[float] = None,
) -> DifftestReport:
    """Fuzz ``count`` functions and differentially test the pipeline.

    Each case is printed, reparsed, transformed and observed; the
    reference observation also comes from a reparse so that a
    printer/parser round-trip defect cannot masquerade as a pass bug.
    ``evaluator`` picks the execution backend for every observation
    (reference, candidate and the bisector's replays).

    One broken case never aborts the campaign: a pipeline stage or
    evaluator that raises -- including faults injected through
    ``repro.faultinject`` -- and a case that overruns ``case_deadline``
    are recorded as structured entries in
    :attr:`DifftestReport.errors` and the campaign moves on.
    """
    fuzzer = FunctionFuzzer(seed, fuzz_config)
    stages = default_pipeline(config)
    report = DifftestReport(
        seed=seed, cases=count, vectors_per_case=vectors_per_case
    )
    for index in range(count):
        if progress is not None:
            progress(index, count)
        module, fn_name = fuzzer.build(index)
        text = print_module(module)
        origin = f"fuzz seed={seed} index={index}"
        try:
            with deadline_scope(case_deadline):
                _run_difftest_case(
                    report, stages, text, fn_name, origin, seed, index,
                    vectors_per_case, step_limit, repro_dir, evaluator,
                )
        except DeadlineExceeded as error:
            report.errors.append(f"{origin}: case deadline exceeded "
                                 f"({error})")
        except Exception as error:
            report.errors.append(
                f"{origin}: {type(error).__name__}: {error}"
            )
    if progress is not None:
        progress(count, count)
    return report


def case_seed(seed: int, index: int) -> int:
    """The vector seed of campaign case ``index`` (shared by the backend
    parity sweep, so both observe a fuzzed function on one draw)."""
    return (seed * 1_000_003 + index) & 0x7FFFFFFF


def _run_difftest_case(
    report: DifftestReport,
    stages: List[PipelineStage],
    text: str,
    fn_name: str,
    origin: str,
    seed: int,
    index: int,
    vectors_per_case: int,
    step_limit: int,
    repro_dir: Optional[str],
    evaluator: str,
) -> None:
    """One campaign case: observe, transform, compare, bisect.

    A fuzzed module defines exactly one function, so its
    :class:`Evidence` on the case seed is that function's draw.  An
    evaluator that raises, on either side, is a case error."""
    module = parse_module(text)
    evidence = Evidence.capture(
        module, seed=case_seed(seed, index), vectors=vectors_per_case,
        step_limit=step_limit, evaluator=evaluator,
    )
    error = evidence.setup_error or evidence.errors.get(fn_name)
    if error is not None:
        report.errors.append(f"{origin}: {error}")
        return
    reference = evidence.observed[fn_name]
    if any(obs.status == "trap" for _, obs in reference):
        report.trap_cases += 1
    report.timeout_cases += sum(
        1 for _, obs in reference if obs.status == "timeout"
    )

    # The capture only *reads* the module (every machine runs in its
    # own memory, and the bisector replays from ``text``), so the
    # pipeline can consume it in place instead of paying a second
    # parse of the identical source.
    try:
        for stage_name, apply_stage in stages:
            changed = apply_stage(module)
            if stage_name == "rolag":
                report.rolled_loops += int(changed or 0)
        verify_module(module)
    except VerificationError as error:
        detail = f"pipeline produced invalid IR: {error}"
    else:
        # The program compiles the *post-pipeline* IR.
        program, error = load_program(module, evaluator)
        if error is not None:
            report.errors.append(f"{origin}: {error}")
            return
        mismatch = first_mismatch(
            module, fn_name, reference, step_limit=step_limit,
            evaluator=evaluator, program=program,
        )
        if mismatch is None:
            return
        detail, _, _, actual = mismatch
        if actual is None:
            report.errors.append(f"{origin}: {detail}")
            return

    record = bisect_pipeline(
        text,
        fn_name,
        stages,
        [vector for vector, _ in reference],
        step_limit,
        origin=origin,
        evaluator=evaluator,
    )
    if record is None:
        report.unexplained.append(f"{origin}: {detail} (did not rebisect)")
        return
    record = minimize_record(record, stages, step_limit, evaluator=evaluator)
    record.origin = origin
    report.mismatches.append(record)
    if repro_dir is not None:
        os.makedirs(repro_dir, exist_ok=True)
        path = os.path.join(
            repro_dir, f"case{index:05d}_{record.stage}.ll"
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(record.to_text())
        report.repro_paths.append(path)


#: The oracle's draw per function: vectors, and steps per observation.
ORACLE_VECTORS = 3
ORACLE_STEP_LIMIT = 200_000


def evidence_seed(text: str) -> int:
    """The vector seed of one job's :class:`Evidence`, from its input
    text: reruns of the same text draw the same vectors, so cache
    entries and offline replays (``repro.validation.evidence_check``)
    stay meaningful."""
    return zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF


#: One function's evidence: (vector, observation) pairs.
Reference = Tuple[Tuple[ArgumentVector, Observation], ...]


class ObservationMemo:
    """One job's observations, each made once per module state.

    An entry is keyed by the module's mutation stamps
    (:meth:`~repro.ir.module.Module.state_key`), the function, the
    argument vector and the backend, so it is found again exactly when
    the same call is asked of the same IR state -- a candidate the gate
    checked and the oracle then checks, or a state a rollback restored.
    The budget rule is :meth:`Evidence.reference`'s: an entry answers a
    run capped at ``step_limit`` only if it completed within that many
    steps; a timeout answers nothing, and a larger budget re-runs.  A
    hit runs no evaluator and so compiles nothing.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, Observation] = {}

    @staticmethod
    def key(
        module: Module, fn_name: str, vector: ArgumentVector, evaluator: str
    ) -> tuple:
        """The entry of one call on ``module``'s current state (floats
        by their bits, so ``-0.0`` and NaN vectors key exactly)."""
        return (
            module.state_key(), fn_name, evaluator,
            tuple(v.hex() if isinstance(v, float) else v
                  for v in vector.values),
        )

    def answer(self, key: tuple, step_limit: int) -> Optional[Observation]:
        """The entry's observation if it stands for a run capped at
        ``step_limit``, else ``None``."""
        observation = self._entries.get(key)
        if (
            observation is None
            or observation.status == "timeout"
            or observation.steps > step_limit
        ):
            return None
        return observation

    def observe(
        self, module: Module, fn_name: str, vector: ArgumentVector, *,
        step_limit: int, evaluator: str, program,
    ) -> Observation:
        """:func:`~repro.difftest.oracle.observe_call`, once per entry."""
        key = self.key(module, fn_name, vector, evaluator)
        observation = self.answer(key, step_limit)
        if observation is None:
            observation = observe_call(
                module, fn_name, vector, step_limit=step_limit,
                evaluator=evaluator, program=program,
            )
            old = self._entries.get(key)
            if old is None or old.status == "timeout":
                self._entries[key] = observation
        return observation


def _observe(
    memo: Optional[ObservationMemo], module: Module, fn_name: str,
    vector: ArgumentVector, *, step_limit: int, evaluator: str, program,
) -> Observation:
    """One observation, through ``memo`` when there is one."""
    if memo is None:
        return observe_call(
            module, fn_name, vector, step_limit=step_limit,
            evaluator=evaluator, program=program,
        )
    return memo.observe(
        module, fn_name, vector, step_limit=step_limit,
        evaluator=evaluator, program=program,
    )


@dataclass(frozen=True)
class Evidence:
    """One job's observations of its original module, captured once.

    ``observed`` maps each defined function to its pairs on the draw
    ``make_argument_vectors(fn, seed, n)`` at ``step_limit``
    (``None``: the signature defeats the vector generator).  ``errors``
    says why the evaluator could not run a function (its pairs stop
    before that vector), ``setup_error`` why it could not load the
    module.  The gate reads a prefix (:meth:`reference`), the oracle
    all of it (:meth:`check`).

    ``memo`` is the job's :class:`ObservationMemo`: the capture, the
    gate's and the oracle's checks all observe through it, so one call
    on one module state runs once per job.  A function without
    parameters draws ``n`` identical (empty) vectors; the capture runs
    it once and each later state once, not ``n`` times.
    """

    step_limit: int
    evaluator: str
    observed: Dict[str, Optional[Reference]]
    errors: Dict[str, str]
    setup_error: Optional[str] = None
    memo: ObservationMemo = field(
        default_factory=ObservationMemo, compare=False, repr=False
    )

    @classmethod
    def capture(
        cls, module: Module, *, seed: int, vectors: int, step_limit: int,
        evaluator: str,
    ) -> "Evidence":
        """Observe every defined function of ``module`` on its draw."""
        observed: Dict[str, Optional[Reference]] = {}
        errors: Dict[str, str] = {}
        memo = ObservationMemo()
        program, error = load_program(module, evaluator)
        if error is not None:
            return cls(step_limit, evaluator, observed, errors,
                       f"evaluator setup failed: {error}")
        for fn in module.functions:
            if fn.is_declaration:
                continue
            try:
                draw = make_argument_vectors(fn, seed, vectors)
            except ValueError:
                observed[fn.name] = None
                continue
            observed[fn.name], error = capture_pairs(
                module, fn.name, draw, step_limit=step_limit,
                evaluator=evaluator, program=program, memo=memo,
            )
            if error is not None:
                errors[fn.name] = error
        return cls(step_limit, evaluator, observed, errors, memo=memo)

    def reference(
        self, fn_name: str, count: int, step_limit: int
    ) -> Optional[Reference]:
        """The first ``count`` pairs of ``@fn_name`` as a run capped at
        ``step_limit`` steps observes them, or ``None`` without that
        much evidence.  The evaluators stop at step ``step_limit + 1``,
        and a run within the budget is identical under a larger one."""
        pairs = self.observed.get(fn_name)
        if pairs is None or len(pairs) < count:
            return None
        return tuple(
            (vector, observation if observation.steps <= step_limit
             else Observation(status="timeout", steps=step_limit + 1))
            for vector, observation in pairs[:count]
        )

    def check(
        self, transformed: Module, *, skip_unevaluable: bool
    ) -> Tuple[bool, List[str]]:
        """Hold ``transformed`` to every pair; ``(ok, details)``, one
        detail per failing function.  A function the evaluator could not
        run on the original is an ``evaluator error`` detail, or skipped
        with ``skip_unevaluable`` (the gate only verified it)."""
        if self.setup_error is not None:
            return False, [self.setup_error]
        program, error = load_program(transformed, self.evaluator)
        if error is not None:
            return False, [f"evaluator setup failed: {error}"]
        details: List[str] = []
        for name, pairs in self.observed.items():
            if transformed.get_function(name) is None:
                details.append(f"@{name}: missing from transformed module")
            elif name in self.errors:
                if not skip_unevaluable:
                    details.append(f"@{name} {self.errors[name]}")
            elif pairs:
                mismatch = first_mismatch(
                    transformed, name, pairs, step_limit=self.step_limit,
                    evaluator=self.evaluator, program=program,
                    memo=self.memo,
                )
                if mismatch is not None:
                    details.append(f"@{name} {mismatch[0]}")
        return not details, details


def load_program(module: Module, evaluator: str):
    """``(program, None)``, or ``(None, "Type: message")`` when the
    evaluator cannot load ``module``; deadline signals pass through."""
    try:
        return program_for(module, evaluator), None
    except DeadlineExceeded:
        raise
    except Exception as error:
        return None, f"{type(error).__name__}: {error}"


def capture_pairs(
    module: Module, fn_name: str, vectors: Sequence[ArgumentVector], *,
    step_limit: int, evaluator: str, program,
    memo: Optional[ObservationMemo] = None,
) -> Tuple[Reference, Optional[str]]:
    """Observe ``@fn_name`` in ``module`` (loaded as ``program``) on each
    of ``vectors``, through ``memo`` when given: ``(pairs, None)``, or
    the pairs before the vector the evaluator raised on and an
    ``evaluator error`` detail for it.  Deadline signals pass through."""
    pairs = []
    for vector in vectors:
        try:
            pairs.append((vector, _observe(
                memo, module, fn_name, vector, step_limit=step_limit,
                evaluator=evaluator, program=program,
            )))
        except DeadlineExceeded:
            raise
        except Exception as error:
            return tuple(pairs), (
                f"{vector.describe()}: evaluator error: "
                f"{type(error).__name__}: {error}"
            )
    return tuple(pairs), None


def first_mismatch(
    module: Module, fn_name: str, reference: Reference, *, step_limit: int,
    evaluator: str, program, memo: Optional[ObservationMemo] = None,
) -> Optional[tuple]:
    """``(detail, vector, expected, actual)`` for the first pair
    ``@fn_name`` in ``module`` (loaded as ``program``) fails, observed
    through ``memo`` when given, or ``None``.  ``actual`` is ``None``
    when the evaluator raised."""
    for vector, expected in reference:
        try:
            actual = _observe(
                memo, module, fn_name, vector, step_limit=step_limit,
                evaluator=evaluator, program=program,
            )
        except DeadlineExceeded:
            raise
        except Exception as error:
            return (
                f"{vector.describe()}: evaluator error on candidate: "
                f"{type(error).__name__}: {error}",
                vector, expected, None,
            )
        detail = compare_observations(expected, actual)
        if detail is not None:
            return (f"{vector.describe()}: {detail}", vector, expected, actual)
    return None


#: The backend-parity rule, field by field: ``(name, same)``.  Every
#: :class:`Observation` field compares exactly, except that a NaN
#: result or extern argument matches a NaN (a NaN built by arithmetic
#: is a fresh object on each backend, and NaN != NaN).
_NAN_AWARE = {"result": _same_value, "extern_trace": _same_trace}
_PARITY_FIELDS = tuple(
    (f.name, _NAN_AWARE.get(f.name, operator.eq)) for f in fields(Observation)
)


def first_backend_divergence(
    module: Module, fn_name: str, vectors: Sequence[ArgumentVector], *,
    step_limit: int,
) -> Optional[tuple]:
    """``(detail, vector, interp, compiled)`` for the first vector on
    which ``@fn_name`` behaves differently under the interpreter and
    the compiling evaluator, or ``None``.

    The backend-parity rule is field-by-field :class:`Observation`
    equality -- status, result, memory bytes, extern trace, trap kind
    and steps -- not :func:`compare_observations`: one backend stands
    in for the other only if they agree exactly, except that a NaN
    result or extern argument matches a NaN, as in the oracle.  The
    compiled program is built once.  A backend that cannot load the
    module or raises diverges with no observations (``vector`` is
    ``None`` for a failed load).
    """
    program, error = load_program(module, "compiled")
    if error is not None:
        return (f"compiling evaluator rejected the module: {error}",
                None, None, None)
    interp, interp_error = capture_pairs(
        module, fn_name, vectors, step_limit=step_limit,
        evaluator="interp", program=None,
    )
    compiled, compiled_error = capture_pairs(
        module, fn_name, vectors, step_limit=step_limit,
        evaluator="compiled", program=program,
    )
    for (vector, a), (_, b) in zip(interp, compiled):
        diff = "; ".join(
            f"{name}: interp={getattr(a, name)!r} "
            f"compiled={getattr(b, name)!r}"
            for name, same in _PARITY_FIELDS
            if not same(getattr(a, name), getattr(b, name))
        )
        if diff:
            return (f"{vector.describe()}: interp vs compiled: {diff}",
                    vector, a, b)
    for backend, pairs, error in (
        ("interp", interp, interp_error),
        ("compiled", compiled, compiled_error),
    ):
        if error is not None:
            return f"{backend} {error}", vectors[len(pairs)], None, None
    return None


def check_module_semantics(
    original: Module,
    transformed: Module,
    *,
    seed: int,
    vectors_per_fn: int = ORACLE_VECTORS,
    step_limit: int = ORACLE_STEP_LIMIT,
    evaluator: str = "interp",
) -> Tuple[bool, List[str]]:
    """Capture ``original``'s :class:`Evidence` and hold ``transformed``
    to it; ``(ok, mismatch details)``.  Best-effort evidence, not a
    proof: exotic signatures are skipped, a raising evaluator is an
    ``evaluator error`` detail, and deadline signals pass through."""
    evidence = Evidence.capture(
        original, seed=seed, vectors=vectors_per_fn, step_limit=step_limit,
        evaluator=evaluator,
    )
    return evidence.check(transformed, skip_unevaluable=False)
