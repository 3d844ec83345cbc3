"""The online translation-validation gate (the transaction ladder).

A :class:`Validator` decides whether one transaction's IR edit commits
or rolls back, at one of four levels:

``off``
    no gating; transactions are free.
``fast``
    the incremental verifier re-checks just the blocks the pass
    touched (:func:`repro.ir.verify_blocks`) -- catches malformed IR
    at a cost proportional to the edit, not the function.
``safe``
    full verification plus an Observation-equality check: the edited
    function is executed on a small deterministic input-vector set and
    compared against the job's one
    :class:`~repro.difftest.runner.Evidence`, the original module's
    observations captured before any pass ran -- the same value the
    driver's difftest oracle checks its candidates against.  The gate
    observes with the backend that captured its evidence, through the
    evidence's observation memo, so the oracle's later check of a
    state the gate committed runs nothing.
``strict``
    ``safe`` plus cross-backend parity: the candidate's full
    observations under the interpreter and the compiling evaluator
    must be equal -- status, result, memory, extern trace, trap kind
    and step count, with a NaN matching a NaN -- on the gate's vectors.  The rule is
    :func:`~repro.difftest.runner.first_backend_divergence`, the one
    the backend-parity sweep applies.

On a gate failure the validator restores the snapshot, records a
:class:`~repro.validation.report.GuardReport` with a unified IR diff,
and (when ``guard_dir`` is set) writes a repro bundle, minimized with
the difftest minimizer whenever the failure replays deterministically.
The reference stays valid across commits because every committed
transaction was itself validated observation-equal.

The gate reads the first ``vectors`` pairs of the evidence at its own
``step_limit``, so one capture sized for the oracle serves it, and
:func:`evidence_check` replays exactly those vectors offline.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..difftest.bisect import MismatchRecord, minimize_record
from ..difftest.oracle import ArgumentVector, Observation
from ..difftest.runner import (
    Evidence,
    Reference,
    first_backend_divergence,
    first_mismatch,
    load_program,
)
from ..faultinject import DeadlineExceeded, active_plan
from ..ir.module import Function, Module
from ..ir.printer import print_function, print_module
from ..ir.snapshot import FunctionSnapshot
from ..ir.verifier import VerificationError, verify_blocks, verify_function
from .report import GuardReport, unified_ir_diff, write_guard_bundle

#: The validation ladder, weakest to strongest.
VALIDATION_LEVELS = ("off", "fast", "safe", "strict")

#: A gate verdict: (failure kind, detail, vector, expected, actual).
#: The last three are ``None`` unless an oracle comparison failed.
_Failure = Tuple[
    str, str, Optional[ArgumentVector], Optional[Observation],
    Optional[Observation],
]


def function_stage(
    fn_name: str, fn_pass: Callable[[Function], object]
) -> Callable[[Module], object]:
    """Lift a function pass into the module-stage shape the difftest
    bisector/minimizer replays (applied to the one named function)."""

    def apply(module: Module) -> object:
        target = module.get_function(fn_name)
        if target is None or target.is_declaration:
            return 0
        return fn_pass(target)

    return apply


def evidence_check(
    original: Module,
    transformed: Module,
    *,
    seed: int,
    vectors: int = 2,
    step_limit: int = 50_000,
    evaluator: str = "interp",
) -> Tuple[bool, List[str]]:
    """Offline replay of the gate's exact evidence; ``(ok, details)``.

    The semantic levels attest observation-equality on a small vector
    set, not equivalence.  This captures the :class:`Evidence` a
    :class:`Validator` with the same ``seed``/``vectors``/``step_limit``
    checked and holds the final ``transformed`` module to it -- the
    invariant a chaos storm holds a validated run to.  Functions the
    gate only verified (exotic signatures, evaluator failures on the
    original) are skipped here too.
    """
    evidence = Evidence.capture(
        original,
        seed=seed,
        vectors=max(1, vectors),
        step_limit=step_limit,
        evaluator=evaluator,
    )
    return evidence.check(transformed, skip_unevaluable=True)


class Validator:
    """Gates transactions for one module's pipeline run.

    One validator may be shared across every function of a module (its
    evidence is keyed by function name).  ``evaluator`` is the backend
    that captures the evidence and observes every candidate, in the
    semantic check and in the guard-bundle minimizer; a validator
    handed evidence (:meth:`from_config`) takes the backend that
    captured it.  Every check compares through
    :mod:`repro.difftest.runner`: ``safe`` holds the candidate to its
    evidence with ``first_mismatch``, ``strict`` then to itself across
    backends with ``first_backend_divergence``.
    """

    def __init__(
        self,
        level: str = "fast",
        *,
        vectors: int = 2,
        step_limit: int = 50_000,
        guard_dir: Optional[str] = None,
        evaluator: str = "interp",
        seed: int = 0,
    ) -> None:
        if level not in VALIDATION_LEVELS:
            raise ValueError(
                f"unknown validation level {level!r} "
                f"(expected one of {', '.join(VALIDATION_LEVELS)})"
            )
        self.level = level
        self.vectors = max(1, vectors)
        self.step_limit = step_limit
        self.guard_dir = guard_dir
        self.evaluator = evaluator
        self.seed = seed
        self.reports: List[GuardReport] = []
        self._evidence: Optional[Evidence] = None

    @classmethod
    def from_config(
        cls, config, evidence: Optional[Evidence] = None
    ) -> "Validator":
        """The gate a :class:`~repro.rolag.RolagConfig` describes,
        checking against ``evidence`` (sized to cover its vectors and
        step limit) or, without it, capturing its own.

        The gate observes candidates with the backend that captured its
        evidence, so a candidate is held to observations of the same
        evaluator; ``config.validate_evaluator`` picks the backend only
        when the validator captures its own evidence."""
        validator = cls(
            config.validate,
            vectors=config.validate_vectors,
            step_limit=config.validate_step_limit,
            guard_dir=config.guard_dir,
            evaluator=(
                config.validate_evaluator
                if evidence is None
                else evidence.evaluator
            ),
        )
        validator._evidence = evidence
        return validator

    # -- transaction protocol ----------------------------------------------

    def begin(self, fn: Function) -> FunctionSnapshot:
        """Open a transaction: snapshot ``fn`` as best-known-good.

        At the semantic levels, a validator without :class:`Evidence`
        captures it from ``fn``'s module on its first transaction,
        *before* any pass has had a chance to mutate the IR.
        """
        if (
            self.level in ("safe", "strict")
            and self._evidence is None
            and fn.module is not None
        ):
            self._evidence = Evidence.capture(
                fn.module,
                seed=self.seed,
                vectors=self.vectors,
                step_limit=self.step_limit,
                evaluator=self.evaluator,
            )
        return FunctionSnapshot(fn)

    def commit_or_rollback(
        self,
        fn: Function,
        snapshot: FunctionSnapshot,
        pass_name: str,
        replay: Optional[Callable[[Function], object]] = None,
    ) -> Optional[GuardReport]:
        """Gate the edit: ``None`` commits it, a report means it was
        rolled back to the snapshot.

        ``replay`` optionally re-applies the pass (a function-pass
        callable) to the same function in a freshly parsed module,
        enabling repro minimization for deterministic failures.
        """
        if self.level == "off" or not snapshot.changed():
            return None
        failure = self._gate(fn, snapshot)
        if failure is None:
            return None
        kind, detail, vector, expected, actual = failure
        return self._rollback(
            fn, snapshot, pass_name, kind, detail, replay,
            vector=vector, expected=expected, actual=actual,
        )

    def rollback_exception(
        self,
        fn: Function,
        snapshot: FunctionSnapshot,
        pass_name: str,
        error: BaseException,
    ) -> GuardReport:
        """A pass raised mid-transaction: restore and report."""
        detail = f"{type(error).__name__}: {error}"
        return self._rollback(
            fn, snapshot, pass_name, "exception", detail, replay=None
        )

    # -- the ladder ---------------------------------------------------------

    def _gate(
        self, fn: Function, snapshot: FunctionSnapshot
    ) -> Optional[_Failure]:
        """A failure tuple, or ``None`` when the edit is accepted."""
        try:
            if self.level == "fast":
                verify_blocks(fn, snapshot.touched_blocks())
            else:
                verify_function(fn)
        except DeadlineExceeded:
            raise
        except VerificationError as error:
            return ("verifier", str(error), None, None, None)
        except Exception as error:
            # The verifier is hardened against corrupt IR, but a gate
            # must never let a diagnostic crash masquerade as a commit.
            return (
                "verifier",
                f"verifier crashed: {type(error).__name__}: {error}",
                None, None, None,
            )
        reference = self._reference(fn) if self.level != "fast" else None
        module = fn.module
        if not reference or module is None:
            return None
        program, error = load_program(module, self.evaluator)
        if error is not None:
            return ("semantics", f"evaluator setup failed on candidate: "
                    f"{error}", None, None, None)
        mismatch = first_mismatch(
            module, fn.name, reference, step_limit=self.step_limit,
            evaluator=self.evaluator, program=program,
            memo=self._evidence.memo,
        )
        if mismatch is not None:
            return ("semantics",) + mismatch
        if self.level == "strict":
            divergence = first_backend_divergence(
                module, fn.name, [vector for vector, _ in reference],
                step_limit=self.step_limit,
            )
            if divergence is not None:
                return ("parity",) + divergence
        return None

    def _reference(self, fn: Function) -> Optional[Reference]:
        """``fn``'s pairs at this gate's size, or ``None`` (verify only)."""
        if self._evidence is None:
            return None
        return self._evidence.reference(fn.name, self.vectors, self.step_limit)

    # -- rollback + reporting ----------------------------------------------

    def _rollback(
        self,
        fn: Function,
        snapshot: FunctionSnapshot,
        pass_name: str,
        kind: str,
        detail: str,
        replay: Optional[Callable[[Function], object]],
        vector: Optional[ArgumentVector] = None,
        expected: Optional[Observation] = None,
        actual: Optional[Observation] = None,
    ) -> GuardReport:
        module = fn.module
        # Capture the rejected IR before restore wipes it.  Printing
        # corrupt IR can itself fail; the rollback must not.
        try:
            after_fn_text = print_function(fn)
        except Exception:
            after_fn_text = "; <rejected IR unprintable>"
        try:
            after_module_text = (
                print_module(module) if module is not None else after_fn_text
            )
        except Exception:
            after_module_text = after_fn_text
        snapshot.restore()
        before_fn_text = print_function(fn)
        report = GuardReport(
            pass_name=pass_name,
            function=fn.name,
            failure_kind=kind,
            detail=detail,
            ir_diff=unified_ir_diff(
                before_fn_text, after_fn_text, f"@{fn.name}"
            ),
            level=self.level,
        )
        if self.guard_dir:
            self._write_bundle(
                report, fn, after_module_text, replay,
                vector=vector, expected=expected, actual=actual,
            )
        self.reports.append(report)
        return report

    def _write_bundle(
        self,
        report: GuardReport,
        fn: Function,
        after_module_text: str,
        replay: Optional[Callable[[Function], object]],
        vector: Optional[ArgumentVector],
        expected: Optional[Observation],
        actual: Optional[Observation],
    ) -> None:
        module = fn.module
        try:
            before_module_text = (
                print_module(module)
                if module is not None
                else print_function(fn)
            )
        except Exception:
            return  # restored IR unprintable: nothing useful to persist
        reference = self._reference(fn) or ()
        if vector is None:
            vector = reference[0][0] if reference else ArgumentVector(())
        if expected is None:
            expected = reference[0][1] if reference else Observation("ok")
        if actual is None:
            trap = (
                "invalid-ir"
                if report.failure_kind == "verifier"
                else f"guard-{report.failure_kind}"
            )
            actual = Observation(status="trap", trap_kind=trap)
        record = MismatchRecord(
            fn_name=fn.name,
            stage=report.pass_name,
            vector=vector,
            detail=report.detail,
            ir_before=before_module_text,
            ir_after=after_module_text,
            expected=expected,
            actual=actual,
            origin=f"guard level={self.level}",
        )
        minimized = record
        if replay is not None:
            # Replay with fault injection suppressed: the minimizer must
            # shrink the *pass's* misbehaviour, not keep re-rolling the
            # injection dice (whose hit counters have moved on anyway).
            stages = [
                (report.pass_name, function_stage(fn.name, replay))
            ]
            try:
                with active_plan(None):
                    minimized = minimize_record(
                        record,
                        stages,
                        step_limit=self.step_limit,
                        evaluator=self.evaluator,
                    )
            except Exception:
                minimized = record
        if minimized is record:
            record.notes.append(
                "not minimized: failure did not reproduce on replay "
                "(transient or injected fault)"
                if replay is not None
                else "not minimized: no deterministic replay available"
            )
        write_guard_bundle(report, minimized.to_text(), self.guard_dir)
