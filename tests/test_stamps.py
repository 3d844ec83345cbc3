"""Mutation stamps: one stamp per IR state, and the audit of the
shortcuts they allow (the ``stamp_checker`` fixture of ``conftest``)."""

import pytest

from repro.ir import FunctionSnapshot, parse_module, verify_function
from repro.ir.values import ConstantInt, GlobalVariable
from tests.test_txn import SRC, bump_constant


def _fn():
    module = parse_module(SRC)
    return module, module.get_function("f")


def test_every_api_edit_draws_a_fresh_stamp():
    module, fn = _fn()
    block = fn.blocks[0]
    add, mul, ret = block.instructions
    seen = [fn.stamp]
    for edit in (
        lambda: add.set_operand(1, ConstantInt(add.type, 2)),
        lambda: mul.rename("product"),
        lambda: block.rename("start"),
        lambda: mul.move_before(add),
        lambda: add.move_before(mul),
        lambda: fn.add_block("spare"),
        lambda: fn.blocks[-1].erase_from_parent(),
    ):
        edit()
        assert fn.stamp not in seen
        seen.append(fn.stamp)
    before = module.stamp
    module.add_global("g", add.type)
    assert module.stamp != before


def test_every_edit_of_an_ir_list_draws_a_fresh_stamp():
    """The lists stamp themselves: an in-place edit or a rebinding is a
    new state even though it bypasses the IR methods."""
    module, fn = _fn()
    block = fn.blocks[0]
    add, mul, ret = block.instructions
    insts = block.instructions

    def swap():
        insts[0], insts[1] = insts[1], insts[0]

    seen = [fn.stamp]
    for edit in (
        swap,
        swap,
        lambda: add.operands.__setitem__(1, ConstantInt(add.type, 5)),
        lambda: setattr(mul, "operands", list(mul.operands)),
        lambda: add.uses.clear(),
        lambda: setattr(mul, "uses", []),
        lambda: setattr(block, "instructions", list(insts)),
        lambda: fn.blocks.reverse(),
        lambda: setattr(fn, "blocks", list(fn.blocks)),
    ):
        edit()
        assert fn.stamp not in seen
        seen.append(fn.stamp)
    assert type(block.instructions[:]) is list  # copies are plain lists
    before = module.stamp
    module.globals.append(GlobalVariable("g", add.type))
    assert module.stamp != before


def test_restore_puts_the_stamp_back_and_a_later_edit_draws_a_new_one():
    module, fn = _fn()
    snapshot = FunctionSnapshot(fn)
    captured, module_captured = fn.stamp, module.stamp
    held = {captured}
    bump_constant(fn)
    held.add(fn.stamp)
    module.add_global("__rolag_table", fn.return_type)
    snapshot.restore()
    assert (fn.stamp, module.stamp) == (captured, module_captured)
    assert not snapshot.changed()
    bump_constant(fn)
    assert fn.stamp not in held and fn.stamp > max(held)


def test_a_verified_state_is_not_verified_again(stamp_checker):
    module, fn = _fn()
    verify_function(fn)
    verify_function(fn)
    assert (stamp_checker.verify_executed, stamp_checker.verify_skipped) == (
        1, 1,
    )
    bump_constant(fn)
    verify_function(fn)
    assert stamp_checker.verify_executed == 2


def test_an_in_place_edit_is_checked_afresh(stamp_checker):
    """Swapping two instructions in place, as a pass might, is a new
    state: the verifier runs on it and rejects it."""
    from repro.ir import VerificationError

    module, fn = _fn()
    verify_function(fn)
    insts = fn.blocks[0].instructions
    insts[0], insts[1] = insts[1], insts[0]
    with pytest.raises(VerificationError, match="dominate"):
        verify_function(fn)
    assert stamp_checker.verify_skipped == 0


def test_an_in_place_operand_edit_misses_the_memo(stamp_checker):
    from repro.difftest.runner import Evidence

    module, fn = _fn()
    evidence = Evidence.capture(
        module, seed=1, vectors=1, step_limit=1000, evaluator="interp"
    )
    add = fn.blocks[0].instructions[0]
    add.operands[1] = ConstantInt(add.type, 40)  # stamps, skips the uses
    ok, details = evidence.check(module, skip_unevaluable=False)
    assert not ok and stamp_checker.memo_hits == 0


def test_an_edit_behind_the_stamps_fails_the_checker(stamp_checker):
    """Only code that calls the base ``list`` methods on the IR's lists
    can edit without stamping; the checker catches what that would let
    the shortcuts get wrong."""
    module, fn = _fn()
    verify_function(fn)
    snapshot = FunctionSnapshot(fn)
    insts = fn.blocks[0].instructions
    first, second = insts[0], insts[1]
    list.__setitem__(insts, 0, second)  # no stamp
    list.__setitem__(insts, 1, first)
    verify_function(fn)
    assert not snapshot.changed()
    assert len(stamp_checker.violations) == 2
    assert "verify of @f skipped" in stamp_checker.violations[0]
    assert "structural diff says changed" in stamp_checker.violations[1]
    stamp_checker.violations.clear()  # the failure this test expects


def test_a_stale_memo_entry_fails_the_checker(stamp_checker):
    from repro.difftest.runner import Evidence

    module, fn = _fn()
    evidence = Evidence.capture(
        module, seed=1, vectors=1, step_limit=1000, evaluator="interp"
    )
    add = fn.blocks[0].instructions[0]
    # Behind the stamps: the constant changes, the stamp does not.
    list.__setitem__(add.operands, 1, ConstantInt(add.type, 40))
    ok, _ = evidence.check(module, skip_unevaluable=False)
    assert ok  # the stale entry answered
    assert stamp_checker.memo_hits == 1
    assert any("module changed" in v for v in stamp_checker.violations)
    assert any("differs from a fresh run" in v
               for v in stamp_checker.violations)
    stamp_checker.violations.clear()  # the failure this test expects


def _stage_counts(monkeypatch, jobs, config, **options):
    """Serial ``optimize_one`` over ``jobs``: (evaluator runs,
    ``CompiledFunction`` builds, verifies executed, verifies skipped)."""
    from repro.driver import optimize_one
    from repro.faultinject import FaultPlan, active_plan
    from repro.ir import compile_eval, verifier

    builds = []
    verifies = {False: 0, True: 0}
    compile_function = compile_eval.CompiledFunction._compile
    verified_at_stamp = verifier._verified_at_stamp

    def counting_build(self):
        builds.append(self.fn.name)
        return compile_function(self)

    def counting_verify(fn):
        skip = verified_at_stamp(fn)
        verifies[skip] += 1
        return skip

    monkeypatch.setattr(
        compile_eval.CompiledFunction, "_compile", counting_build
    )
    monkeypatch.setattr(verifier, "_verified_at_stamp", counting_verify)
    plan = FaultPlan()  # no clauses: it only counts site visits
    with active_plan(plan):
        for job in jobs:
            optimize_one(job, config, **options)
    return (
        plan.hits.get("difftest.observe", 0), len(builds),
        verifies[False], verifies[True],
    )


def test_tsvc_checked_subset_counts(monkeypatch):
    """The first four TSVC kernels, unrolled by 4, 8 and 16 (12 jobs), as
    ``tsvc-checked`` runs them.  Before mutation stamps existed: 156
    evaluator runs, 60 ``CompiledFunction`` builds, 60 verifies executed
    and none skipped.  The memo leaves one run and one build per state
    the capture or the gate observes, and the oracle's checks are all
    hits; the post-reroll and post-RoLAG verifies skip."""
    from perfbench.workloads import tsvc_config, tsvc_jobs

    jobs = tsvc_jobs(1, kernels=4)
    counts = _stage_counts(
        monkeypatch, jobs, tsvc_config(),
        check_semantics=True, evaluator="compiled",
    )
    assert counts == (36, 36, 36, 24)


def test_campaign_subset_counts(monkeypatch):
    """Eight ``campaign-angha`` jobs (mini-C, validate off): no evaluator
    runs.  Before mutation stamps existed: 62 verifies executed, frontend
    included.  Now a verify of a state already verified skips: the
    post-reroll one, and the post-RoLAG one where RoLAG rolled nothing."""
    from perfbench.workloads import campaign_config, campaign_jobs

    counts = _stage_counts(
        monkeypatch, campaign_jobs(1, count=8),
        campaign_config(),
    )
    assert counts == (0, 0, 46, 16)
