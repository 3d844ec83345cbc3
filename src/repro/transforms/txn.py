"""Transactional pass execution: every pass is a commit-or-rollback.

:class:`TransactionalPassManager` is another name for
:class:`~repro.transforms.pass_manager.PassManager`: handed a
:class:`repro.validation.Validator`, it runs each pass as a transaction
through :func:`~repro.transforms.pass_manager.run_step`, the one pass
boundary it shares with the RoLAG worklist.  An edit the ladder rejects,
or a pass that raises, is rolled back to the snapshot and recorded as a
:class:`~repro.validation.GuardReport`; the pipeline continues from
best-known-good IR with the next pass.
"""

from .pass_manager import PassManager

TransactionalPassManager = PassManager
