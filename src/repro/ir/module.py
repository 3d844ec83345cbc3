"""Module, function and basic-block containers."""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .instructions import Br, Instruction, Phi
from .types import FunctionType, LABEL, PointerType, StructType, Type
from .values import (
    Argument, Constant, GlobalVariable, Value, fresh_stamp, stamped_list,
)


def _fresh_name(prefix: str, taken: Set[str], last: int = 0) -> Tuple[str, int]:
    """The first ``prefix.N`` with ``N > last`` that is not in ``taken``,
    and its ``N``."""
    while True:
        last += 1
        name = f"{prefix}.{last}"
        if name not in taken:
            return name, last


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator.

    Basic blocks are values of label type so branches and phis can
    reference them through ordinary use-def chains.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(LABEL, name)
        self.parent: Optional["Function"] = None
        self._instructions = stamped_list(self)

    def _touch(self) -> None:
        if self.parent is not None:
            self.parent.stamp = fresh_stamp()

    def _set_instructions(self, instructions: Sequence[Instruction]) -> None:
        self._instructions = stamped_list(self, instructions)
        self._touch()

    #: The block's instructions, in order.  Rebinding it, or editing it
    #: in place, stamps the function (but sets no ``parent``: see
    #: :meth:`set_instructions`).
    instructions = property(attrgetter("_instructions"), _set_instructions)

    def append(self, inst: Instruction) -> Instruction:
        """Add ``inst`` at the end of the block."""
        list.append(self._instructions, inst)
        inst.parent = self
        self._touch()
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        """Add ``inst`` at position ``index``."""
        list.insert(self._instructions, index, inst)
        inst.parent = self
        self._touch()
        return inst

    def remove(self, inst: Instruction) -> None:
        """Take ``inst`` out of the block, keeping its operands (to
        move it elsewhere); :meth:`Instruction.erase_from_parent` also
        drops them."""
        list.remove(self._instructions, inst)
        inst.parent = None
        self._touch()

    def set_instructions(self, instructions: Sequence[Instruction]) -> None:
        """Make ``instructions`` the block's whole body, in order.

        Instructions left out keep their operands and their parent
        pointer; erase them (or move them elsewhere) separately."""
        self.instructions = instructions
        for inst in self._instructions:
            inst.parent = self

    @property
    def terminator(self) -> Optional[Instruction]:
        """The final instruction if it is a terminator, else None."""
        if self._instructions and self._instructions[-1].is_terminator:
            return self._instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        """Blocks this block can branch to."""
        term = self.terminator
        return term.successors() if term is not None else []

    def predecessors(self) -> List["BasicBlock"]:
        """Blocks that branch to this block."""
        preds = []
        for use in self._uses:
            user = use.user
            if isinstance(user, Br) and user.parent is not None:
                if user.parent not in preds:
                    preds.append(user.parent)
        return preds

    def phis(self) -> List[Phi]:
        """The phi nodes at the top of the block."""
        result = []
        for inst in self._instructions:
            if isinstance(inst, Phi):
                result.append(inst)
            else:
                break
        return result

    def first_non_phi_index(self) -> int:
        """Index of the first non-phi instruction."""
        for i, inst in enumerate(self._instructions):
            if not isinstance(inst, Phi):
                return i
        return len(self._instructions)

    def erase_from_parent(self) -> None:
        """Remove the block from its function, dropping its instructions."""
        if self.parent is not None:
            self.parent.blocks.remove(self)  # stamps the function
            self.parent = None
        for inst in self._instructions:
            inst.drop_all_references()
        self._instructions = stamped_list(self)

    def short_name(self) -> str:
        """Printable label reference (``%name``)."""
        return f"%{self.name}"

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)


class Function(Constant):
    """A function definition or declaration.

    As in LLVM the function itself is a constant whose type is a pointer
    to its :class:`FunctionType`, so it can be used directly as a callee
    or stored in memory.

    ``stamp`` is the function's mutation stamp: every edit of the body
    draws a fresh one from the process-wide counter
    (:func:`~repro.ir.values.fresh_stamp`), and
    :meth:`~repro.ir.snapshot.FunctionSnapshot.restore` puts the
    captured one back.  So one stamp names exactly one state of the
    body, and a state seen once is recognised again in O(1): the
    verifier skips a body it verified at this stamp, and a snapshot
    answers ``changed()`` without a diff.  The body's lists enforce
    this rather than trust it: ``blocks``, ``instructions``,
    ``operands`` and ``uses`` are :class:`~repro.ir.values.StampedList`
    and :class:`~repro.ir.values.UseList` objects, so an edit through
    the IR methods, an in-place edit of one of those lists and a
    rebinding of one all stamp.  Renaming an attached instruction or
    block stamps through :meth:`~repro.ir.values.Value.rename`; the
    other instruction fields (opcode, predicate, types) are fixed at
    construction, as :class:`~repro.ir.snapshot.FunctionSnapshot`
    already assumes.
    """

    def __init__(
        self,
        name: str,
        function_type: FunctionType,
        module: Optional["Module"] = None,
        arg_names: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(PointerType(function_type), name)
        self.function_type = function_type
        self.module = module
        self._blocks = stamped_list(self)
        self.attributes: Set[str] = set()
        names = list(arg_names or [])
        self.arguments: List[Argument] = [
            Argument(ty, names[i] if i < len(names) else f"arg{i}", i)
            for i, ty in enumerate(function_type.params)
        ]
        self.stamp = fresh_stamp()
        #: The stamp :func:`~repro.ir.verifier.verify_function` last
        #: passed the body at (0: never).
        self.verified_stamp = 0
        #: Every local name live or drawn since the memo was built
        #: (``None`` until the first draw), and per prefix the last
        #: ``N`` drawn.  See :meth:`next_name`.
        self._taken: Optional[Set[str]] = None
        self._last: Dict[str, int] = {}

    def _touch(self) -> None:
        self.stamp = fresh_stamp()

    def _set_blocks(self, blocks: Sequence[BasicBlock]) -> None:
        self._blocks = stamped_list(self, blocks)
        self._touch()

    #: The basic blocks, entry first.  Rebinding it, or editing it in
    #: place, stamps the function (but sets no block's ``parent``).
    blocks = property(attrgetter("_blocks"), _set_blocks)

    @property
    def return_type(self) -> Type:
        """The declared return type."""
        return self.function_type.return_type

    @property
    def is_declaration(self) -> bool:
        """Whether the function has no body."""
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        """The first basic block."""
        return self.blocks[0]

    def add_block(self, name: str = "", before: Optional[BasicBlock] = None) -> BasicBlock:
        """Create and attach a new basic block."""
        block = BasicBlock(name or self.next_name("bb"))
        index = len(self.blocks) if before is None else self.blocks.index(before)
        return self.insert_block(index, block)

    def insert_block(self, index: int, block: BasicBlock) -> BasicBlock:
        """Attach the detached ``block`` at position ``index``."""
        block.parent = self
        list.insert(self._blocks, index, block)
        self._touch()
        return block

    def next_name(self, prefix: str = "t") -> str:
        """A fresh local name, ``prefix.N``.

        ``N`` counts up from 1 per prefix and skips every name an
        argument, block or instruction of the function holds (or a
        previous draw returned), so a derived name never equals an
        input name.  The names taken are collected at the first draw
        (or the first after :meth:`reset_names`), so draws depend on the
        live IR alone: a function and a parsed copy of its printed text
        draw the same names.
        """
        if self._taken is None:
            self._taken = {a.name for a in self.arguments}
            for block in self.blocks:
                self._taken.add(block.name)
                self._taken.update(inst.name for inst in block.instructions)
        name, self._last[prefix] = _fresh_name(
            prefix, self._taken, self._last.get(prefix, 0)
        )
        self._taken.add(name)
        return name

    def reset_names(self) -> None:
        """Forget the names drawn so far; the next draw starts over from
        the live names, as in a freshly parsed copy."""
        self._taken = None
        self._last.clear()

    def instructions(self) -> Iterator[Instruction]:
        """Iterate all instructions in block order."""
        for block in self.blocks:
            yield from block.instructions

    def short_name(self) -> str:
        """Printable reference (``@name``)."""
        return f"@{self.name}"

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    """Blocks reachable from entry, in reverse postorder.

    Successors are visited in terminator operand order, so the result
    depends only on the CFG, not on ``fn.blocks`` list order.  The one
    walk behind dominator trees and structural fingerprints.
    """
    if not fn.blocks:
        return []
    visited: Set[int] = set()
    order: List[BasicBlock] = []

    # Iterative DFS to avoid recursion limits on deep CFGs.
    stack: List[tuple] = [(fn.entry, iter(fn.entry.successors()))]
    visited.add(id(fn.entry))
    while stack:
        block, successors = stack[-1]
        advanced = False
        for succ in successors:
            if id(succ) not in visited:
                visited.add(id(succ))
                stack.append((succ, iter(succ.successors())))
                advanced = True
                break
        if not advanced:
            order.append(block)
            stack.pop()
    order.reverse()
    return order


class Module:
    """Top-level container of globals and functions."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: List[Function] = []
        self._globals = stamped_list(self)
        self.struct_types: Dict[str, StructType] = {}
        #: The mutation stamp of the module's globals: adding or
        #: removing one draws a fresh one.
        self.stamp = fresh_stamp()

    def _touch(self) -> None:
        self.stamp = fresh_stamp()

    def _set_globals(self, globals_: Sequence[GlobalVariable]) -> None:
        self._globals = stamped_list(self, globals_)
        self._touch()

    #: The global variables.  Rebinding it, or editing it in place,
    #: stamps the module.
    globals = property(attrgetter("_globals"), _set_globals)

    def state_key(self) -> Tuple[int, ...]:
        """The stamps of the module and of every function, in order:
        equal keys name one and the same state of the whole module (a
        new function brings a stamp no other state held)."""
        return (self.stamp, *[fn.stamp for fn in self.functions])

    def add_function(
        self,
        name: str,
        function_type: FunctionType,
        arg_names: Optional[Sequence[str]] = None,
    ) -> Function:
        """Create and register a function."""
        fn = Function(name, function_type, self, arg_names)
        self.functions.append(fn)
        return fn

    def get_function(self, name: str) -> Optional[Function]:
        """Look up a function by name, or None."""
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None

    def add_global(
        self,
        name: str,
        value_type: Type,
        initializer: Optional[Constant] = None,
        is_constant: bool = False,
    ) -> GlobalVariable:
        """Create and register a global variable."""
        gv = GlobalVariable(name, value_type, initializer, is_constant)
        list.append(self._globals, gv)
        self._touch()
        return gv

    def get_global(self, name: str) -> Optional[GlobalVariable]:
        """Look up a global by name, or None."""
        for gv in self.globals:
            if gv.name == name:
                return gv
        return None

    def unique_global_name(self, base: str) -> str:
        """``base`` if no global or function holds it, else the first
        ``base.N`` none holds (the rule of :meth:`Function.next_name`)."""
        taken = {g.name for g in self.globals} | {f.name for f in self.functions}
        return base if base not in taken else _fresh_name(base, taken)[0]

    def register_struct(self, struct: StructType) -> None:
        """Record a named struct for printing."""
        if struct.name is not None:
            self.struct_types[struct.name] = struct

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions)
