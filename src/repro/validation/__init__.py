"""Online translation validation for transactional passes.

Public surface::

    from repro.validation import (
        Validator, VALIDATION_LEVELS, function_stage, evidence_check,
        evidence_seed, GuardReport, FAILURE_KINDS,
        unified_ir_diff, write_guard_bundle,
    )

The :class:`Validator` gates every transaction opened at the one pass
boundary, :func:`repro.transforms.pass_manager.run_step`, which a
:class:`~repro.transforms.PassManager` handed a validator and the
RoLAG worklist run each pass and each block decision through; see
``docs/robustness.md`` for the ladder and the rollback contract.

Import note: this package imports ``repro.difftest`` (the runner holds
:class:`~repro.difftest.runner.Evidence`), and with it the RoLAG
pipeline.  Callers inside ``repro.rolag`` must import this package
lazily.
"""

from ..difftest.runner import evidence_seed
from .gate import (
    VALIDATION_LEVELS,
    Validator,
    evidence_check,
    function_stage,
)
from .report import (
    FAILURE_KINDS,
    GuardReport,
    unified_ir_diff,
    write_guard_bundle,
)

__all__ = [
    "FAILURE_KINDS",
    "GuardReport",
    "VALIDATION_LEVELS",
    "Validator",
    "evidence_check",
    "evidence_seed",
    "function_stage",
    "unified_ir_diff",
    "write_guard_bundle",
]
