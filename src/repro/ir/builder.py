"""Convenience builder for constructing IR programmatically."""

from __future__ import annotations

from typing import Optional, Sequence

from .instructions import (
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from .module import BasicBlock, Function
from .types import FloatType, IntType, Type, I32, I64
from .values import ConstantFloat, ConstantInt, Value


class IRBuilder:
    """Appends instructions at an insertion point, LLVM-style.

    >>> b = IRBuilder(block)
    >>> x = b.add(a, b.i32(1), name="x")
    """

    def __init__(self, block: Optional[BasicBlock] = None) -> None:
        self.block = block
        self.insert_index: Optional[int] = None  # None = append at end

    # ----- positioning ------------------------------------------------------

    def position_at_end(self, block: BasicBlock) -> None:
        """Append subsequent instructions at the end of ``block``."""
        self.block = block
        self.insert_index = None

    @property
    def function(self) -> Function:
        """The function owning the current insertion block."""
        assert self.block is not None and self.block.parent is not None
        return self.block.parent

    def _insert(self, inst: Instruction, name: str = "") -> Instruction:
        assert self.block is not None, "builder has no insertion block"
        if name and not inst.type.is_void:
            inst.name = name
        elif not inst.type.is_void and not inst.name:
            inst.name = self.function.next_name()
        if self.insert_index is None:
            self.block.append(inst)
        else:
            self.block.insert(self.insert_index, inst)
            self.insert_index += 1
        return inst

    # ----- constants ----------------------------------------------------------

    def i1(self, value: int) -> ConstantInt:
        """An ``i1`` constant (0 or 1)."""
        return ConstantInt(IntType(1), value)

    def i8(self, value: int) -> ConstantInt:
        """An ``i8`` constant."""
        return ConstantInt(IntType(8), value)

    def i32(self, value: int) -> ConstantInt:
        """An ``i32`` constant."""
        return ConstantInt(I32, value)

    def i64(self, value: int) -> ConstantInt:
        """An ``i64`` constant."""
        return ConstantInt(I64, value)

    def f32(self, value: float) -> ConstantFloat:
        """A ``float`` constant."""
        return ConstantFloat(FloatType(32), value)

    # ----- arithmetic ----------------------------------------------------------

    def binop(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit a binary instruction with the given opcode."""
        return self._insert(BinaryOp(opcode, lhs, rhs), name)

    def add(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit integer addition."""
        return self.binop("add", lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit integer subtraction."""
        return self.binop("sub", lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit integer multiplication."""
        return self.binop("mul", lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit signed integer division."""
        return self.binop("sdiv", lhs, rhs, name)

    def and_(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit bitwise AND."""
        return self.binop("and", lhs, rhs, name)

    def or_(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit bitwise OR."""
        return self.binop("or", lhs, rhs, name)

    def xor(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit bitwise XOR."""
        return self.binop("xor", lhs, rhs, name)

    def shl(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit a left shift."""
        return self.binop("shl", lhs, rhs, name)

    def fadd(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit float addition."""
        return self.binop("fadd", lhs, rhs, name)

    def fmul(self, lhs: Value, rhs: Value, name: str = "") -> BinaryOp:
        """Emit float multiplication."""
        return self.binop("fmul", lhs, rhs, name)

    # ----- comparisons / select -------------------------------------------------

    def icmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> ICmp:
        """Emit an integer/pointer comparison (``eq``, ``slt``, ...)."""
        return self._insert(ICmp(predicate, lhs, rhs), name)

    def fcmp(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> FCmp:
        """Emit a float comparison (``olt``, ``oeq``, ...)."""
        return self._insert(FCmp(predicate, lhs, rhs), name)

    def select(self, cond: Value, a: Value, b: Value, name: str = "") -> Select:
        """Emit ``select cond, a, b``."""
        return self._insert(Select(cond, a, b), name)

    # ----- casts -------------------------------------------------------------

    def cast(self, opcode: str, value: Value, to_type: Type, name: str = "") -> Cast:
        """Emit a conversion with the given cast opcode."""
        return self._insert(Cast(opcode, value, to_type), name)

    def trunc(self, value: Value, to_type: Type, name: str = "") -> Cast:
        """Emit an integer truncation."""
        return self.cast("trunc", value, to_type, name)

    def zext(self, value: Value, to_type: Type, name: str = "") -> Cast:
        """Emit a zero extension."""
        return self.cast("zext", value, to_type, name)

    def sext(self, value: Value, to_type: Type, name: str = "") -> Cast:
        """Emit a sign extension."""
        return self.cast("sext", value, to_type, name)

    def bitcast(self, value: Value, to_type: Type, name: str = "") -> Cast:
        """Emit a lossless bit reinterpretation."""
        return self.cast("bitcast", value, to_type, name)

    # ----- memory ------------------------------------------------------------

    def alloca(self, ty: Type, name: str = "") -> Alloca:
        """Emit a stack allocation of one ``ty``."""
        return self._insert(Alloca(ty), name)

    def gep(
        self,
        source_type: Type,
        pointer: Value,
        indices: Sequence[Value],
        name: str = "",
    ) -> GetElementPtr:
        """Emit a ``getelementptr`` address computation."""
        return self._insert(GetElementPtr(source_type, pointer, indices), name)

    def load(self, ty: Type, pointer: Value, name: str = "") -> Load:
        """Emit a memory read of ``ty`` through ``pointer``."""
        return self._insert(Load(ty, pointer), name)

    def store(self, value: Value, pointer: Value) -> Store:
        """Emit a memory write of ``value`` through ``pointer``."""
        return self._insert(Store(value, pointer))

    # ----- calls / control flow --------------------------------------------------

    def call(self, callee: Value, args: Sequence[Value], name: str = "") -> Call:
        """Emit a direct call."""
        return self._insert(Call(callee, args), name)

    def phi(self, ty: Type, name: str = "") -> Phi:
        """Emit an (initially empty) phi node of type ``ty``."""
        return self._insert(Phi(ty), name)

    def br(self, target: BasicBlock) -> Br:
        """Emit an unconditional branch."""
        return self._insert(Br(target))

    def cond_br(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Br:
        """Emit a conditional branch."""
        return self._insert(Br(cond, if_true, if_false))

    def ret(self, value: Optional[Value] = None) -> Ret:
        """Emit a return (with optional value)."""
        return self._insert(Ret(value))

    def unreachable(self) -> Unreachable:
        """Emit an ``unreachable`` terminator."""
        return self._insert(Unreachable())
