"""Value hierarchy of the SSA IR.

Everything an instruction can reference is a :class:`Value`: constants,
function arguments, global variables, basic blocks (as branch targets),
functions (as callees) and other instructions.  Values that reference
operands are :class:`User` subclasses and maintain explicit use-def
chains, mirroring LLVM's design so that transforms can ask "who uses
this value" in O(uses).
"""

from __future__ import annotations

import itertools
import math
from operator import attrgetter
from typing import List, Optional, Sequence, TYPE_CHECKING

from .types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    round_float,
)

if TYPE_CHECKING:  # pragma: no cover
    from .instructions import Instruction


#: Draws the next mutation stamp: process-wide and monotonic, so a
#: stamp names exactly one IR state (see :class:`repro.ir.module.Function`).
fresh_stamp = itertools.count(1).__next__


#: The ``list`` methods that edit a list in place.
_LIST_EDITS = (
    "__setitem__", "__delitem__", "__iadd__", "__imul__", "append",
    "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
)


def _stamping(edit):
    """The ``list`` method ``edit``, run between two ``_touch()`` calls
    of the list (before, for what the edit removes; after, for what it
    adds)."""

    def method(self, *args, **kwargs):
        self._touch()
        result = edit(self, *args, **kwargs)
        self._touch()
        return result

    method.__name__ = edit.__name__
    method.__doc__ = f"``list.{edit.__name__}``, stamping the IR it edits."
    return method


def _stamp_edits(cls):
    """Make every in-place edit of the list class ``cls`` stamp."""
    for name in _LIST_EDITS:
        setattr(cls, name, _stamping(getattr(list, name)))
    return cls


@_stamp_edits
class StampedList(list):
    """One of the IR's lists -- a block's instructions, a function's
    blocks, a user's operands, a module's globals -- owned by the object
    that holds it.

    Reads are a plain list's.  Every in-place edit (``lst[i] = x``,
    ``append``, ``remove``, a swap, ...) calls the owner's ``_touch()``,
    which gives the function (or module) a fresh mutation stamp, so an
    edit made with the list methods rather than the IR API is still a
    new state: the verifier checks it, the gate diffs it and the
    observation memo misses.  The IR's own methods edit the underlying
    ``list`` directly and stamp once, and its hot paths read the
    private attribute behind the public property.  A copy (slicing,
    ``list(...)``) is a plain list.
    """

    __slots__ = ("_owner",)

    def _touch(self) -> None:
        self._owner._touch()


def stamped_list(owner, items: Sequence = ()) -> StampedList:
    """A :class:`StampedList` of ``items`` whose edits stamp ``owner``
    (a plain function: every instruction builds one, and a classmethod
    call costs twice as much)."""
    parts = StampedList(items) if items else StampedList()
    parts._owner = owner
    return parts


@_stamp_edits
class UseList(list):
    """A value's use records.  An in-place edit stamps the function of
    every user the list names before or after it (a dropped record
    breaks its user's use-def chain, an added one claims a use)."""

    __slots__ = ()

    def _touch(self) -> None:
        for use in self:
            use.user._touch()


class Use:
    """A single operand slot: ``user.operands[index] is value``."""

    __slots__ = ("user", "index")

    def __init__(self, user: "User", index: int) -> None:
        self.user = user
        self.index = index

    def __repr__(self) -> str:
        return f"Use({self.user!r}[{self.index}])"


class Value:
    """Base class for everything that can be an operand."""

    def __init__(self, ty: Type, name: str = "") -> None:
        self.type = ty
        self.name = name
        self._uses = UseList()

    def _set_uses(self, uses: Sequence[Use]) -> None:
        old = self._uses
        self._uses = UseList(uses)
        old._touch()
        self._uses._touch()

    #: The :class:`Use` records of the operand slots naming this value.
    #: Rebinding it, or editing it in place, stamps every user it names.
    uses = property(attrgetter("_uses"), _set_uses)

    def _touch(self) -> None:
        """Note an edit of this value; one inside a function (an
        instruction, a block) gives the function a fresh stamp."""

    def rename(self, name: str) -> None:
        """Set ``name``; renaming an instruction or block inside a
        function gives the function a fresh stamp.  (Assigning ``name``
        directly is for values not yet inserted.)"""
        self.name = name
        self._touch()

    @property
    def users(self) -> List["User"]:
        """Distinct users of this value, in first-use order."""
        seen = []
        for use in self._uses:
            if use.user not in seen:
                seen.append(use.user)
        return seen

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every operand slot referencing ``self`` to ``new``."""
        if new is self:
            return
        for use in list(self._uses):
            use.user.set_operand(use.index, new)

    def is_constant(self) -> bool:
        """Whether this value is a compile-time constant."""
        return isinstance(self, Constant)

    def short_name(self) -> str:
        """Printable handle (``%x``, ``@g``, a literal, ...)."""
        return f"%{self.name}" if self.name else "%<unnamed>"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short_name()}:{self.type}>"


class User(Value):
    """A value that references operands (instructions, const exprs)."""

    def __init__(self, ty: Type, name: str = "") -> None:
        super().__init__(ty, name)
        self._operands = stamped_list(self)
        #: The Use record this user appended to each operand's use
        #: list, parallel to ``operands``.  Detaching removes the
        #: record *by identity* -- an O(n) C-level scan with no
        #: allocation -- instead of rebuilding the whole list, which
        #: matters for interned constants with module-wide use lists.
        self._use_links: List[Use] = []

    def _set_operands(self, operands: Sequence[Value]) -> None:
        self._operands = stamped_list(self, operands)
        self._touch()

    #: The operand values, in order.  Rebinding it, or editing it in
    #: place, stamps (but updates no use list: use the methods below).
    operands = property(attrgetter("_operands"), _set_operands)

    def add_operand(self, value: Value) -> None:
        """Append an operand, recording the use."""
        operands = self._operands
        link = Use(self, len(operands))
        list.append(operands, value)
        self._use_links.append(link)
        list.append(value._uses, link)
        self._touch()

    def set_operand(self, index: int, value: Value) -> None:
        """Replace operand ``index``, updating use lists."""
        operands = self._operands
        old = operands[index]
        if old is value:
            return
        link = self._use_links[index]
        try:
            list.remove(old._uses, link)
        except ValueError:
            pass  # already detached
        new_link = Use(self, index)
        list.__setitem__(operands, index, value)
        self._use_links[index] = new_link
        list.append(value._uses, new_link)
        self._touch()

    def drop_all_references(self) -> None:
        """Detach this user from all of its operands."""
        for old, link in zip(self._operands, self._use_links):
            try:
                list.remove(old._uses, link)
            except ValueError:
                pass  # already detached
        self._operands = stamped_list(self)
        self._use_links = []
        self._touch()


class Constant(Value):
    """Base class of compile-time constants."""


class ConstantInt(Constant):
    """An integer constant of a specific width, stored in signed form."""

    def __init__(self, ty: IntType, value: int) -> None:
        super().__init__(ty)
        masked = value & ty.mask
        if masked >= (1 << (ty.bits - 1)) and ty.bits > 1:
            masked -= 1 << ty.bits
        if ty.bits == 1:
            masked = masked & 1
        self.value = masked

    def short_name(self) -> str:
        """The literal text (``true``/``false`` for i1)."""
        if self.type.bits == 1:
            return "true" if self.value else "false"
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstantInt)
            and other.type is self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class ConstantFloat(Constant):
    """A floating point constant, holding ``value`` rounded to its type
    (a ``float`` constant is a single), so the frontend, the parser and
    the constant folder all build the value execution computes."""

    def __init__(self, ty: FloatType, value: float) -> None:
        super().__init__(ty)
        self.value = round_float(float(value), ty.bits)

    def short_name(self) -> str:
        """The float literal text."""
        return repr(self.value)

    @property
    def key(self) -> tuple:
        """What identifies the constant: its type and value, where
        ``-0.0`` and ``0.0`` differ (``1.0 / x`` tells them apart) and
        every NaN is the same constant."""
        value = self.value
        if value != value:
            return (self.type, "nan")
        return (self.type, value, math.copysign(1.0, value))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantFloat) and other.key == self.key

    def __hash__(self) -> int:
        return hash(self.key)


class UndefValue(Constant):
    """An unspecified value of a given type."""

    def short_name(self) -> str:
        """Always ``undef``."""
        return "undef"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UndefValue) and other.type is self.type

    def __hash__(self) -> int:
        return hash((UndefValue, self.type))


class ConstantNull(Constant):
    """The null pointer of a given pointer type."""

    def short_name(self) -> str:
        """Always ``null``."""
        return "null"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstantNull) and other.type is self.type

    def __hash__(self) -> int:
        return hash((ConstantNull, self.type))


class ConstantAggregate(Constant):
    """A constant array or struct, used for global initializers."""

    def __init__(self, ty: Type, elements: Sequence[Constant]) -> None:
        super().__init__(ty)
        self.elements: List[Constant] = list(elements)

    def short_name(self) -> str:
        """The aggregate literal text."""
        inner = ", ".join(f"{e.type} {e.short_name()}" for e in self.elements)
        return f"[{inner}]" if self.type.is_array else f"{{{inner}}}"


class ConstantZero(Constant):
    """``zeroinitializer`` for any sized type."""

    def short_name(self) -> str:
        """Always ``zeroinitializer``."""
        return "zeroinitializer"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, ty: Type, name: str, index: int) -> None:
        super().__init__(ty, name)
        self.index = index


class GlobalVariable(Constant):
    """A module-level variable.  Its value is the *address* (a pointer)."""

    def __init__(
        self,
        name: str,
        value_type: Type,
        initializer: Optional[Constant] = None,
        is_constant: bool = False,
    ) -> None:
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.is_constant_global = is_constant

    def short_name(self) -> str:
        """Printable reference (``@name``)."""
        return f"@{self.name}"


def const_int(ty: IntType, value: int) -> ConstantInt:
    """Create (or reuse) an integer constant."""
    return ConstantInt(ty, value)


def const_float(ty: FloatType, value: float) -> ConstantFloat:
    """Create a floating point constant."""
    return ConstantFloat(ty, value)


def neutral_element(opcode: str, ty: Type) -> Optional[Constant]:
    """The neutral (identity) element of a binary opcode, if it has one.

    Used both by reduction-tree lowering (accumulator initial value) and
    by the neutral-element alignment rule of Section IV-C3.
    """
    if isinstance(ty, IntType):
        if opcode in ("add", "sub", "or", "xor", "shl", "lshr", "ashr"):
            return ConstantInt(ty, 0)
        if opcode in ("mul", "sdiv", "udiv"):
            return ConstantInt(ty, 1)
        if opcode == "and":
            return ConstantInt(ty, ty.mask)
    if isinstance(ty, FloatType):
        if opcode in ("fadd", "fsub"):
            return ConstantFloat(ty, 0.0)
        if opcode in ("fmul", "fdiv"):
            return ConstantFloat(ty, 1.0)
    return None


def zero_constant_for(ty: Type) -> Constant:
    """A zero-filled constant of any sized type."""
    if isinstance(ty, IntType):
        return ConstantInt(ty, 0)
    if isinstance(ty, FloatType):
        return ConstantFloat(ty, 0.0)
    if isinstance(ty, PointerType):
        return ConstantNull(ty)
    if isinstance(ty, (ArrayType, StructType)):
        return ConstantZero(ty)
    raise ValueError(f"no zero constant for {ty}")
