"""Constant folding and trivial algebraic simplification.

Folds instructions whose operands are all constants and applies a small
set of identities (x+0, x*1, x*0, x-x, ...).  Kept deliberately modest:
it models the cleanups clang runs before ``-Os`` codegen and gives the
TSVC experiment realistic pre-rolled IR.
"""

from __future__ import annotations

from typing import Optional

from ..ir.instructions import BinaryOp, Cast, ICmp, Instruction, Phi, Select
from ..ir.interp import (
    TrapError,
    cast_impl,
    compare_impl,
    eval_binop,
    eval_int_binop,
)
from ..ir.module import Function
from ..ir.types import IntType
from ..ir.values import ConstantFloat, ConstantInt, Value


def fold_int_binop(opcode: str, ty: IntType, a: int, b: int) -> Optional[int]:
    """Fold one integer binop, or None when it must not fold.

    Delegates to the interpreter's :func:`~repro.ir.interp.eval_int_binop`
    so the folded constant is already wrapped to ``ty``'s bit width and
    agrees with execution on every edge case (INT_MIN // -1 wraps,
    shift amounts reduce modulo the width).  Trapping operands
    (division/remainder by zero) never fold: the trap is observable and
    must stay in the instruction stream.
    """
    try:
        return eval_int_binop(opcode, ty.bits, a, b)
    except TrapError:
        return None


def _simplify(inst: Instruction) -> Optional[Value]:
    """A simpler value equivalent to ``inst``, or None."""
    if isinstance(inst, BinaryOp):
        lhs, rhs = inst.operands
        ty = inst.type
        if (
            isinstance(ty, IntType)
            and isinstance(lhs, ConstantInt)
            and isinstance(rhs, ConstantInt)
        ):
            folded = fold_int_binop(inst.opcode, ty, lhs.value, rhs.value)
            if folded is not None:
                return ConstantInt(ty, folded)
        if (
            isinstance(lhs, ConstantFloat)
            and isinstance(rhs, ConstantFloat)
            and inst.opcode in ("fadd", "fsub", "fmul")
        ):
            return ConstantFloat(
                ty, eval_binop(inst.opcode, ty, lhs.value, rhs.value)
            )
        if isinstance(ty, IntType):
            # Cheap inline tests (no throwaway ConstantInt per call):
            # a constant operand equals zero/one iff it is a
            # ConstantInt of this type with that stored value.
            lhs_const = isinstance(lhs, ConstantInt) and lhs.type is ty
            rhs_const = isinstance(rhs, ConstantInt) and rhs.type is ty
            lhs_zero = lhs_const and lhs.value == 0
            rhs_zero = rhs_const and rhs.value == 0
            opcode = inst.opcode
            if opcode == "add":
                if rhs_zero:
                    return lhs
                if lhs_zero:
                    return rhs
            if opcode == "sub" and rhs_zero:
                return lhs
            if opcode == "mul":
                if rhs_const and rhs.value == 1:
                    return lhs
                if lhs_const and lhs.value == 1:
                    return rhs
                if rhs_zero or lhs_zero:
                    return ConstantInt(ty, 0)
            if opcode in ("and", "or") and lhs is rhs:
                return lhs
            if opcode == "xor" and lhs is rhs:
                return ConstantInt(ty, 0)
            if opcode in ("shl", "lshr", "ashr") and rhs_zero:
                return lhs
            if opcode == "or" and rhs_zero:
                return lhs
            if opcode == "xor" and rhs_zero:
                return lhs
        return None
    if isinstance(inst, ICmp):
        lhs, rhs = inst.operands
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            impl, bits = compare_impl(inst)
            return ConstantInt(IntType(1), impl(bits, lhs.value, rhs.value))
        return None
    if isinstance(inst, Select):
        cond = inst.operands[0]
        if isinstance(cond, ConstantInt):
            return inst.operands[1 if cond.value else 2]
        if inst.operands[1] is inst.operands[2]:
            return inst.operands[1]
        return None
    if isinstance(inst, Cast):
        value = inst.operands[0]
        if (
            isinstance(value, ConstantInt)
            and isinstance(inst.type, IntType)
            and inst.opcode in ("trunc", "zext", "sext")
        ):
            impl = cast_impl(inst.opcode, value.type)
            return ConstantInt(
                inst.type, impl(value.type, inst.type, value.value)
            )
        return None
    if isinstance(inst, Phi):
        candidates = [v for v, _ in inst.incoming if v is not inst]
        if not candidates:
            return None
        first = candidates[0]
        for v in candidates[1:]:
            same = v is first or (
                isinstance(v, (ConstantInt, ConstantFloat))
                and isinstance(first, (ConstantInt, ConstantFloat))
                and v == first
            )
            if not same:
                return None
        return first
    return None


def fold_constants(fn: Function) -> int:
    """Constant-fold and simplify; returns the number of rewrites."""
    if fn.is_declaration:
        return 0
    rewrites = 0
    changed = True
    while changed:
        changed = False
        for block in fn.blocks:
            for inst in list(block.instructions):
                replacement = _simplify(inst)
                if replacement is not None and replacement is not inst:
                    inst.replace_all_uses_with(replacement)
                    inst.erase_from_parent()
                    rewrites += 1
                    changed = True
    return rewrites
