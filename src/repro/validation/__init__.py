"""Online translation validation for transactional passes.

Public surface::

    from repro.validation import (
        Validator, VALIDATION_LEVELS, function_stage, evidence_check,
        evidence_seed, GuardReport, FAILURE_KINDS,
        unified_ir_diff, write_guard_bundle,
    )

The :class:`Validator` gates every transaction the transactional pass
manager (``repro.transforms.txn``) and the RoLAG worklist open; see
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
