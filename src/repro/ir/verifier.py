"""IR verifier: structural and SSA well-formedness checks.

Run after every transform in tests (and optionally between passes via
the pass manager) to catch IR corruption early.

Two entry granularities:

* :func:`verify_function` / :func:`verify_module` -- the full check.
  A body is checked once per state: a function the full check passed
  at its current mutation stamp (see :class:`~repro.ir.module.Function`)
  is skipped, so re-verifying a state a gate verified or a snapshot
  restored costs O(1).
* :func:`verify_blocks` -- the incremental check the transactional
  pass layer's ``fast`` gate uses: per-block structure, use-def
  consistency, phi/predecessor agreement, operand dominance and type
  sanity are re-checked for the given (just-touched) blocks only.
  Function-global invariants (every block has a parent, return types
  everywhere) are left to the full check.

Cost per operand slot, with ``d`` the dominator-tree depth:

* use-def: O(uses) scanning a use list of at most
  ``_SCANNED_USE_LIST`` entries; O(1) against a memoized set for a
  longer one (interned constants), whose set is built once, O(uses);
* dominance: O(1) for a non-phi use of an instruction earlier in the
  same block; O(d) for a cross-block use, and O(incoming * d) for a
  phi use;
* types: O(1).

The verifier is the first line of defence against *corrupted* IR, so
it must never crash on the garbage it exists to diagnose: a dominance
query over an instruction whose parent pointers lie is reported as an
error, not raised as an ``IndexError``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from .instructions import (
    BinaryOp,
    Br,
    Call,
    Cast,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from .module import BasicBlock, Function, Module
from .types import FloatType, IntType

#: Binary opcodes restricted to integer operands.
_INT_ONLY_OPCODES = frozenset(
    {
        "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
        "and", "or", "xor", "shl", "lshr", "ashr",
    }
)

#: Binary opcodes restricted to floating point operands.
_FLOAT_ONLY_OPCODES = frozenset({"fadd", "fsub", "fmul", "fdiv", "frem"})

#: ShiftSemantics: shift amounts are interpreted modulo the operand bit
#: width (``repro.ir.interp.SHIFT_AMOUNT_MODULO_BITS``).  The verifier
#: therefore accepts constant out-of-range shift amounts deliberately;
#: the difftest fuzzer generates them to pin the modulo behaviour down.
_SHIFT_OPCODES = frozenset({"shl", "lshr", "ashr"})


#: Use lists up to this long are scanned per operand; longer ones are
#: folded into a memoized set.
_SCANNED_USE_LIST = 16


class VerificationError(Exception):
    """Raised when the IR violates a structural invariant."""


def verify_function(fn: Function) -> None:
    """Raise :class:`VerificationError` if ``fn`` is malformed.

    A function already verified at its current stamp is not checked
    again."""
    if fn.is_declaration or _verified_at_stamp(fn):
        return
    errors: List[str] = []
    if not fn.blocks:
        errors.append("function has no blocks")
    _check_blocks(fn, fn.blocks, errors, full=True)
    _raise_if_any(fn, errors)
    fn.verified_stamp = fn.stamp


def _verified_at_stamp(fn: Function) -> bool:
    """Whether the full check already passed ``fn`` in this state."""
    return fn.verified_stamp == fn.stamp


def verify_blocks(fn: Function, blocks: Sequence[BasicBlock]) -> None:
    """Incrementally re-verify just ``blocks`` of ``fn``.

    The dominator tree is rebuilt for the whole function (dominance is
    a global property), but every per-instruction check runs only over
    the given blocks -- O(touched) instead of O(function) for the
    common case of a pass that edited a couple of blocks.  Blocks that
    no longer belong to ``fn`` are skipped.
    """
    if fn.is_declaration:
        return
    live = [b for b in blocks if b.parent is fn]
    if not live:
        return
    errors: List[str] = []
    _check_blocks(fn, live, errors, full=False)
    _raise_if_any(fn, errors)


def _raise_if_any(fn: Function, errors: List[str]) -> None:
    if errors:
        raise VerificationError(
            f"function @{fn.name}:\n  " + "\n  ".join(errors[:20])
        )


def _check_blocks(
    fn: Function,
    blocks: Iterable[BasicBlock],
    errors: List[str],
    full: bool,
) -> None:
    blocks = list(blocks)

    for block in blocks:
        if block.parent is not fn:
            errors.append(f"block %{block.name} has wrong parent")
        if block.terminator is None:
            errors.append(f"block %{block.name} lacks a terminator")
        seen_non_phi = False
        for inst in block._instructions:
            if inst.parent is not block:
                errors.append(f"instruction {inst!r} has wrong parent block")
            if isinstance(inst, Phi):
                if seen_non_phi:
                    errors.append(
                        f"phi {inst.short_name()} not at start of %{block.name}"
                    )
            else:
                seen_non_phi = True
            if inst.is_terminator and inst is not block._instructions[-1]:
                errors.append(f"terminator mid-block in %{block.name}")

    # Use-def chain consistency: operand ``index`` of ``inst`` needs a
    # ``Use`` naming ``(inst, index)`` in the operand's use list.  A
    # short list is scanned in place.  A long one -- an interned
    # constant's, shared module-wide -- is folded into a set once and
    # memoized, so scanning it per referencing operand is not quadratic.
    use_sets: Dict[int, set] = {}
    for block in blocks:
        for inst in block._instructions:
            for index, op in enumerate(inst._operands):
                uses = op._uses
                if len(uses) <= _SCANNED_USE_LIST:
                    for use in uses:
                        if use.user is inst and use.index == index:
                            break
                    else:
                        errors.append(
                            f"operand {index} of {inst!r} missing from use list"
                        )
                    continue
                key = id(op)
                pairs = use_sets.get(key)
                if pairs is None:
                    pairs = {(id(u.user), u.index) for u in uses}
                    use_sets[key] = pairs
                if (id(inst), index) not in pairs:
                    errors.append(
                        f"operand {index} of {inst!r} missing from use list"
                    )

    # Phi incoming edges match predecessors: every reachable
    # predecessor contributes exactly one incoming value, and no
    # incoming names a non-predecessor.
    from ..analysis.domtree import DominatorTree

    domtree = DominatorTree(fn)
    for block in blocks:
        if not domtree.is_reachable(block):
            continue
        preds = block.predecessors()
        for phi in block.phis():
            incoming_blocks = [b for _, b in phi.incoming]
            for pred in preds:
                count = sum(1 for b in incoming_blocks if b is pred)
                if count == 0:
                    errors.append(
                        f"phi {phi.short_name()} in %{block.name} missing "
                        f"incoming for %{pred.name}"
                    )
                elif count > 1:
                    errors.append(
                        f"phi {phi.short_name()} in %{block.name} has "
                        f"{count} incoming values for %{pred.name} "
                        "(expected exactly one)"
                    )
            for b in incoming_blocks:
                if b not in preds:
                    errors.append(
                        f"phi {phi.short_name()} in %{block.name} has spurious "
                        f"incoming %{b.name}"
                    )

    # SSA dominance: every non-phi instruction operand must be defined
    # in a dominating position (phi uses are checked at the end of the
    # corresponding incoming block by ``dominates``).  ``seen`` holds
    # the instructions already walked in this block: a non-phi use of
    # one of them is dominated, the answer ``dominates`` would give.
    # Every other use -- cross-block, phi, or one that may be invalid --
    # asks the tree.
    for block in blocks:
        if not domtree.is_reachable(block):
            continue
        seen: Set[int] = set()
        for inst in block._instructions:
            inst_id = id(inst)
            in_order = (
                inst.parent is block
                and inst_id not in seen
                and not isinstance(inst, Phi)
            )
            for op in inst._operands:
                if not isinstance(op, Instruction):
                    continue
                if op.parent is None:
                    errors.append(
                        f"{inst!r} uses detached instruction {op!r}"
                    )
                    continue
                if in_order and op.parent is block and id(op) in seen:
                    continue
                try:
                    dominated = domtree.dominates(op, inst)
                except Exception as error:
                    # Lying parent pointers make the dominance query
                    # itself blow up; that is corruption, not a
                    # verifier crash.
                    errors.append(
                        f"dominance query failed for {op.short_name()} used "
                        f"in {inst!r}: {type(error).__name__}: {error}"
                    )
                    continue
                if not dominated:
                    errors.append(
                        f"{op.short_name()} does not dominate its use in "
                        f"{inst!r} (block %{block.name})"
                    )
            seen.add(inst_id)

    # Basic type sanity.
    for block in blocks:
        for inst in block.instructions:
            _check_types(inst, errors)

    # Return types.
    for block in blocks:
        term = block.terminator
        if isinstance(term, Ret):
            if fn.return_type.is_void:
                if term.return_value is not None:
                    errors.append("ret with value in void function")
            elif term.return_value is None:
                errors.append("ret void in non-void function")
            elif term.return_value.type is not fn.return_type:
                errors.append(
                    f"ret type {term.return_value.type} != {fn.return_type}"
                )


def _check_types(inst: Instruction, errors: List[str]) -> None:
    if isinstance(inst, BinaryOp):
        a, b = inst._operands
        if a.type is not b.type or a.type is not inst.type:
            errors.append(f"binary op type mismatch: {inst!r}")
        if inst.opcode in _INT_ONLY_OPCODES and not isinstance(a.type, IntType):
            errors.append(f"{inst.opcode} requires integer operands: {inst!r}")
        if inst.opcode in _FLOAT_ONLY_OPCODES and not isinstance(
            a.type, FloatType
        ):
            errors.append(f"{inst.opcode} requires float operands: {inst!r}")
        # _SHIFT_OPCODES note: out-of-range shift amounts are legal here
        # by design (modulo-bit-width semantics); no range check.
    elif isinstance(inst, ICmp):
        a, b = inst._operands
        if a.type is not b.type:
            errors.append(f"icmp operand type mismatch: {inst!r}")
        elif not (a.type.is_integer or a.type.is_pointer):
            errors.append(f"icmp on non-integer/pointer type: {inst!r}")
    elif isinstance(inst, Select):
        cond, a, b = inst._operands
        if not (cond.type.is_integer and cond.type.bits == 1):
            errors.append(f"select condition not i1: {inst!r}")
        if a.type is not b.type or a.type is not inst.type:
            errors.append(f"select arm type mismatch: {inst!r}")
    elif isinstance(inst, Cast):
        (a,) = inst._operands
        if inst.opcode in ("trunc", "zext", "sext"):
            if not (
                isinstance(a.type, IntType) and isinstance(inst.type, IntType)
            ):
                errors.append(f"{inst.opcode} on non-integer types: {inst!r}")
            elif inst.opcode == "trunc" and inst.type.bits > a.type.bits:
                errors.append(f"trunc widens {a.type} to {inst.type}: {inst!r}")
            elif inst.opcode != "trunc" and inst.type.bits < a.type.bits:
                errors.append(
                    f"{inst.opcode} narrows {a.type} to {inst.type}: {inst!r}"
                )
    elif isinstance(inst, GetElementPtr):
        for idx in inst.indices:
            if not idx.type.is_integer:
                errors.append(f"gep index not an integer: {inst!r}")
    elif isinstance(inst, Store):
        if not inst.pointer.type.is_pointer:
            errors.append(f"store to non-pointer: {inst!r}")
        elif inst.pointer.type.pointee is not inst.value.type:
            errors.append(f"store type mismatch: {inst!r}")
    elif isinstance(inst, Load):
        if not inst.pointer.type.is_pointer:
            errors.append(f"load from non-pointer: {inst!r}")
        elif inst.pointer.type.pointee is not inst.type:
            errors.append(f"load type mismatch: {inst!r}")
    elif isinstance(inst, Call):
        fnty = inst.function_type
        if not fnty.vararg and len(inst.args) != len(fnty.params):
            errors.append(f"call arity mismatch: {inst!r}")
        for arg, param in zip(inst.args, fnty.params):
            if arg.type is not param:
                errors.append(f"call arg type mismatch: {inst!r}")
    elif isinstance(inst, Phi):
        for value, _ in inst.incoming:
            if value.type is not inst.type:
                errors.append(f"phi incoming type mismatch: {inst!r}")
    elif isinstance(inst, Br):
        if inst.is_conditional and inst.condition.type.is_integer:
            if inst.condition.type.bits != 1:
                errors.append(f"branch condition not i1: {inst!r}")


def verify_module(module: Module) -> None:
    """Verify every function in ``module``."""
    for fn in module.functions:
        verify_function(fn)
