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

Import note: this package pulls in ``repro.difftest.oracle`` and
``repro.difftest.bisect`` directly (not the ``repro.difftest`` package,
whose ``__init__`` imports the runner and with it the RoLAG pipeline).
Callers inside ``repro.rolag`` must import this package lazily.
"""

from .gate import (
    VALIDATION_LEVELS,
    Validator,
    evidence_check,
    evidence_seed,
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
