"""Instruction classes of the SSA IR.

The instruction set mirrors the subset of LLVM IR that matters for loop
rolling: integer/float arithmetic, comparisons, select, casts,
``getelementptr`` address computation, memory access, calls, phi nodes
and control flow.  Every instruction is a :class:`~repro.ir.values.User`
and participates in use-def chains.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from .types import (
    FunctionType,
    PointerType,
    Type,
    VOID,
    I1,
)
from .values import User, Value, fresh_stamp

if TYPE_CHECKING:  # pragma: no cover
    from .module import BasicBlock, Function


BINARY_OPCODES = frozenset(
    {
        "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
        "and", "or", "xor", "shl", "lshr", "ashr",
        "fadd", "fsub", "fmul", "fdiv", "frem",
    }
)

COMMUTATIVE_OPCODES = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})

ASSOCIATIVE_INT_OPCODES = frozenset({"add", "mul", "and", "or", "xor"})

#: Float re-association requires fast-math (paper Section IV-C5).
ASSOCIATIVE_FP_OPCODES = frozenset({"fadd", "fmul"})

ICMP_PREDICATES = frozenset(
    {"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}
)

FCMP_PREDICATES = frozenset(
    {"oeq", "one", "olt", "ole", "ogt", "oge", "ord", "uno"}
)

CAST_OPCODES = frozenset(
    {
        "trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr",
        "sitofp", "uitofp", "fptosi", "fptoui", "fpext", "fptrunc",
    }
)


class Instruction(User):
    """Base class of all instructions."""

    opcode: str = "<abstract>"

    def __init__(self, ty: Type, name: str = "") -> None:
        super().__init__(ty, name)
        self.parent: Optional["BasicBlock"] = None

    def _touch(self) -> None:
        block = self.parent
        if block is not None and block.parent is not None:
            block.parent.stamp = fresh_stamp()

    # ----- classification -------------------------------------------------

    #: Whether this instruction ends a basic block.  A plain class
    #: attribute (overridden by Br/Ret/Unreachable): the flag is static
    #: per opcode and hot enough that property dispatch shows up in
    #: campaign profiles.
    is_terminator: bool = False

    def may_read_memory(self) -> bool:
        """Whether execution may observe memory."""
        if isinstance(self, Load):
            return True
        if isinstance(self, Call):
            return not self.is_readnone()
        return False

    def may_write_memory(self) -> bool:
        """Whether execution may modify memory."""
        if isinstance(self, Store):
            return True
        if isinstance(self, Call):
            return not (self.is_readnone() or self.is_readonly())
        return False

    def has_side_effects(self) -> bool:
        """Whether reordering/removal could change observable behaviour."""
        return self.may_write_memory() or self.is_terminator

    def may_trap(self) -> bool:
        """Whether executing this instruction can raise a runtime trap.

        Traps (division by zero, out-of-bounds memory access) are
        *observable* in this IR -- the interpreter is the semantic
        oracle and reports them deterministically -- so passes must not
        delete a potentially trapping instruction even when its value
        is unused.  Division/remainder with a constant nonzero divisor
        never traps (``INT_MIN / -1`` wraps, it does not trap).
        """
        from .values import ConstantInt

        if isinstance(self, BinaryOp) and self.opcode in (
            "sdiv", "udiv", "srem", "urem",
        ):
            rhs = self._operands[1]
            return not (isinstance(rhs, ConstantInt) and rhs.value != 0)
        if isinstance(self, (Load, Store)):
            return True
        return False

    # ----- block surgery ---------------------------------------------------

    def erase_from_parent(self) -> None:
        """Remove from the containing block and drop operand references."""
        if self.parent is not None:
            self.parent.remove(self)
        self.drop_all_references()

    def move_before(self, other: "Instruction") -> None:
        """Reposition this instruction immediately before ``other``."""
        block = other.parent
        assert block is not None
        if self.parent is not None:
            self.parent.remove(self)
        block.insert(block.instructions.index(other), self)

    def clone(self) -> "Instruction":
        """Shallow clone: same operands, no parent, no name."""
        new = self._clone_impl()
        for op in self._operands:
            new.add_operand(op)
        return new

    def _clone_impl(self) -> "Instruction":
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short_name()}>"


class BinaryOp(Instruction):
    """Two-operand arithmetic / bitwise instruction."""

    def __init__(self, opcode: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if opcode not in BINARY_OPCODES:
            raise ValueError(f"unknown binary opcode: {opcode}")
        super().__init__(lhs.type, name)
        self.opcode = opcode
        self.add_operand(lhs)
        self.add_operand(rhs)

    @property
    def is_commutative(self) -> bool:
        """Whether operands may be swapped (add, mul, and, or, xor, f*)."""
        return self.opcode in COMMUTATIVE_OPCODES

    @property
    def is_associative(self) -> bool:
        """Whether the op may be re-associated (int always; floats need fast-math)."""
        return (
            self.opcode in ASSOCIATIVE_INT_OPCODES
            or self.opcode in ASSOCIATIVE_FP_OPCODES
        )

    def _clone_impl(self) -> "BinaryOp":
        new = BinaryOp.__new__(BinaryOp)
        Instruction.__init__(new, self.type)
        new.opcode = self.opcode
        return new


class ICmp(Instruction):
    """Integer / pointer comparison producing an ``i1``."""

    opcode = "icmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate: {predicate}")
        super().__init__(I1, name)
        self.predicate = predicate
        self.add_operand(lhs)
        self.add_operand(rhs)

    def _clone_impl(self) -> "ICmp":
        new = ICmp.__new__(ICmp)
        Instruction.__init__(new, I1)
        new.predicate = self.predicate
        return new


class FCmp(Instruction):
    """Floating point comparison producing an ``i1``."""

    opcode = "fcmp"

    def __init__(self, predicate: str, lhs: Value, rhs: Value, name: str = "") -> None:
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate: {predicate}")
        super().__init__(I1, name)
        self.predicate = predicate
        self.add_operand(lhs)
        self.add_operand(rhs)

    def _clone_impl(self) -> "FCmp":
        new = FCmp.__new__(FCmp)
        Instruction.__init__(new, I1)
        new.predicate = self.predicate
        return new


class Select(Instruction):
    """``select i1 %c, T %a, T %b`` — conditional move."""

    opcode = "select"

    def __init__(self, cond: Value, a: Value, b: Value, name: str = "") -> None:
        super().__init__(a.type, name)
        self.add_operand(cond)
        self.add_operand(a)
        self.add_operand(b)

    def _clone_impl(self) -> "Select":
        new = Select.__new__(Select)
        Instruction.__init__(new, self.type)
        return new


class Cast(Instruction):
    """Type conversion (trunc/zext/sext/bitcast/...)."""

    def __init__(self, opcode: str, value: Value, to_type: Type, name: str = "") -> None:
        if opcode not in CAST_OPCODES:
            raise ValueError(f"unknown cast opcode: {opcode}")
        super().__init__(to_type, name)
        self.opcode = opcode
        self.add_operand(value)

    def _clone_impl(self) -> "Cast":
        new = Cast.__new__(Cast)
        Instruction.__init__(new, self.type)
        new.opcode = self.opcode
        return new


class GetElementPtr(Instruction):
    """Address arithmetic over a typed base pointer.

    ``gep <source_type>, <ptr>, <indices...>`` follows LLVM semantics:
    the first index scales by the whole source type, further indices
    step into arrays/structs.  Struct indices must be constants.
    """

    opcode = "gep"

    def __init__(
        self,
        source_type: Type,
        pointer: Value,
        indices: Sequence[Value],
        name: str = "",
    ) -> None:
        result = self._result_type(source_type, indices)
        super().__init__(result, name)
        self.source_type = source_type
        self.add_operand(pointer)
        for idx in indices:
            self.add_operand(idx)

    @staticmethod
    def _result_type(source_type: Type, indices: Sequence[Value]) -> Type:
        from .values import ConstantInt

        ty = source_type
        for idx in list(indices)[1:]:
            if ty.is_array:
                ty = ty.element
            elif ty.is_struct:
                if not isinstance(idx, ConstantInt):
                    raise ValueError("struct GEP index must be a constant")
                ty = ty.fields[idx.value]
            else:
                raise ValueError(f"cannot index into {ty}")
        return PointerType(ty)

    @property
    def pointer(self) -> Value:
        """The base pointer operand."""
        return self._operands[0]

    @property
    def indices(self) -> List[Value]:
        """The index operands (after the pointer)."""
        return self._operands[1:]

    def _clone_impl(self) -> "GetElementPtr":
        new = GetElementPtr.__new__(GetElementPtr)
        Instruction.__init__(new, self.type)
        new.source_type = self.source_type
        return new


class Load(Instruction):
    """Memory read."""

    opcode = "load"

    def __init__(self, ty: Type, pointer: Value, name: str = "") -> None:
        super().__init__(ty, name)
        self.add_operand(pointer)

    @property
    def pointer(self) -> Value:
        """The address being read."""
        return self._operands[0]

    def _clone_impl(self) -> "Load":
        new = Load.__new__(Load)
        Instruction.__init__(new, self.type)
        return new


class Store(Instruction):
    """Memory write.  Produces no value."""

    opcode = "store"

    def __init__(self, value: Value, pointer: Value) -> None:
        super().__init__(VOID)
        self.add_operand(value)
        self.add_operand(pointer)

    @property
    def value(self) -> Value:
        """The value being written."""
        return self._operands[0]

    @property
    def pointer(self) -> Value:
        """The address being written."""
        return self._operands[1]

    def _clone_impl(self) -> "Store":
        new = Store.__new__(Store)
        Instruction.__init__(new, VOID)
        return new


class Call(Instruction):
    """Direct function call.  Operand 0 is the callee."""

    opcode = "call"

    def __init__(self, callee: Value, args: Sequence[Value], name: str = "") -> None:
        fnty = callee.type
        if fnty.is_pointer:
            fnty = fnty.pointee
        if not isinstance(fnty, FunctionType):
            raise ValueError("callee must have function type")
        super().__init__(fnty.return_type, name)
        self.function_type = fnty
        self.add_operand(callee)
        for arg in args:
            self.add_operand(arg)

    @property
    def callee(self) -> Value:
        """The called function (operand 0)."""
        return self._operands[0]

    @property
    def args(self) -> List[Value]:
        """The call arguments (operands after the callee)."""
        return self._operands[1:]

    def is_readnone(self) -> bool:
        """Whether the callee is declared side-effect free."""
        from .module import Function

        callee = self.callee
        return isinstance(callee, Function) and "readnone" in callee.attributes

    def is_readonly(self) -> bool:
        """Whether the callee is declared to only read memory."""
        from .module import Function

        callee = self.callee
        return isinstance(callee, Function) and "readonly" in callee.attributes

    def _clone_impl(self) -> "Call":
        new = Call.__new__(Call)
        Instruction.__init__(new, self.type)
        new.function_type = self.function_type
        return new


class Phi(Instruction):
    """SSA phi node.  Operands alternate (value, incoming-block)."""

    opcode = "phi"

    def __init__(self, ty: Type, name: str = "") -> None:
        super().__init__(ty, name)

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        """Append an (incoming value, predecessor block) pair."""
        self.add_operand(value)
        self.add_operand(block)

    @property
    def incoming(self) -> List[Tuple[Value, "BasicBlock"]]:
        """All (value, predecessor block) pairs."""
        pairs = []
        for i in range(0, len(self._operands), 2):
            pairs.append((self._operands[i], self._operands[i + 1]))
        return pairs

    def incoming_for(self, block: "BasicBlock") -> Optional[Value]:
        """The incoming value for ``block``, or None."""
        for value, pred in self.incoming:
            if pred is block:
                return value
        return None

    def set_incoming_value(self, index: int, value: Value) -> None:
        """Replace the value of the ``index``-th incoming pair."""
        self.set_operand(index * 2, value)

    def remove_incoming(self, block: "BasicBlock") -> None:
        """Drop the incoming pair for ``block``."""
        pairs = [(v, b) for v, b in self.incoming if b is not block]
        self.drop_all_references()
        for value, pred in pairs:
            self.add_incoming(value, pred)

    def _clone_impl(self) -> "Phi":
        new = Phi.__new__(Phi)
        Instruction.__init__(new, self.type)
        return new


class Br(Instruction):
    """Branch: unconditional (1 operand) or conditional (3 operands)."""

    opcode = "br"
    is_terminator = True

    def __init__(
        self,
        target_or_cond: Value,
        if_true: Optional["BasicBlock"] = None,
        if_false: Optional["BasicBlock"] = None,
    ) -> None:
        super().__init__(VOID)
        if if_true is None:
            self.add_operand(target_or_cond)
        else:
            assert if_false is not None
            self.add_operand(target_or_cond)
            self.add_operand(if_true)
            self.add_operand(if_false)

    @property
    def is_conditional(self) -> bool:
        """Whether this branch tests a condition."""
        return len(self._operands) == 3

    @property
    def condition(self) -> Value:
        """The i1 condition of a conditional branch."""
        assert self.is_conditional
        return self._operands[0]

    def successors(self) -> List["BasicBlock"]:
        """Branch targets in (true, false) order."""
        if self.is_conditional:
            return [self._operands[1], self._operands[2]]
        return [self._operands[0]]

    def _clone_impl(self) -> "Br":
        new = Br.__new__(Br)
        Instruction.__init__(new, VOID)
        return new


class Ret(Instruction):
    """Function return, optionally carrying a value."""

    opcode = "ret"
    is_terminator = True

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__(VOID)
        if value is not None:
            self.add_operand(value)

    @property
    def return_value(self) -> Optional[Value]:
        """The returned value, or None for ``ret void``."""
        return self._operands[0] if self._operands else None

    def successors(self) -> List["BasicBlock"]:
        """Always empty: returns leave the function."""
        return []

    def _clone_impl(self) -> "Ret":
        new = Ret.__new__(Ret)
        Instruction.__init__(new, VOID)
        return new


class Unreachable(Instruction):
    """Marks statically unreachable control flow."""

    opcode = "unreachable"
    is_terminator = True

    def __init__(self) -> None:
        super().__init__(VOID)

    def successors(self) -> List["BasicBlock"]:
        """Always empty."""
        return []

    def _clone_impl(self) -> "Unreachable":
        return Unreachable()


class Alloca(Instruction):
    """Stack allocation.  Produces a pointer to ``allocated_type``."""

    opcode = "alloca"

    def __init__(self, allocated_type: Type, name: str = "") -> None:
        super().__init__(PointerType(allocated_type), name)
        self.allocated_type = allocated_type

    def _clone_impl(self) -> "Alloca":
        new = Alloca.__new__(Alloca)
        Instruction.__init__(new, self.type)
        new.allocated_type = self.allocated_type
        return new
