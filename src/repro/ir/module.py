"""Module, function and basic-block containers."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .instructions import Br, Instruction, Phi
from .types import FunctionType, LABEL, PointerType, StructType, Type
from .values import Argument, Constant, GlobalVariable, Value


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
        self.instructions: List[Instruction] = []

    def append(self, inst: Instruction) -> Instruction:
        """Add ``inst`` at the end of the block."""
        self.instructions.append(inst)
        inst.parent = self
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        """Add ``inst`` at position ``index``."""
        self.instructions.insert(index, inst)
        inst.parent = self
        return inst

    @property
    def terminator(self) -> Optional[Instruction]:
        """The final instruction if it is a terminator, else None."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        """Blocks this block can branch to."""
        term = self.terminator
        return term.successors() if term is not None else []

    def predecessors(self) -> List["BasicBlock"]:
        """Blocks that branch to this block."""
        preds = []
        for use in self.uses:
            user = use.user
            if isinstance(user, Br) and user.parent is not None:
                if user.parent not in preds:
                    preds.append(user.parent)
        return preds

    def phis(self) -> List[Phi]:
        """The phi nodes at the top of the block."""
        result = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                result.append(inst)
            else:
                break
        return result

    def first_non_phi_index(self) -> int:
        """Index of the first non-phi instruction."""
        for i, inst in enumerate(self.instructions):
            if not isinstance(inst, Phi):
                return i
        return len(self.instructions)

    def erase_from_parent(self) -> None:
        """Remove the block from its function, dropping its instructions."""
        if self.parent is not None:
            self.parent.blocks.remove(self)
            self.parent = None
        for inst in list(self.instructions):
            inst.drop_all_references()
        self.instructions = []

    def short_name(self) -> str:
        """Printable label reference (``%name``)."""
        return f"%{self.name}"

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


class Function(Constant):
    """A function definition or declaration.

    As in LLVM the function itself is a constant whose type is a pointer
    to its :class:`FunctionType`, so it can be used directly as a callee
    or stored in memory.
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
        self.blocks: List[BasicBlock] = []
        self.attributes: Set[str] = set()
        names = list(arg_names or [])
        self.arguments: List[Argument] = [
            Argument(ty, names[i] if i < len(names) else f"arg{i}", i)
            for i, ty in enumerate(function_type.params)
        ]
        #: Every local name live or drawn since the memo was built
        #: (``None`` until the first draw), and per prefix the last
        #: ``N`` drawn.  See :meth:`next_name`.
        self._taken: Optional[Set[str]] = None
        self._last: Dict[str, int] = {}

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
        block.parent = self
        if before is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(before), block)
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


class Module:
    """Top-level container of globals and functions."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: List[Function] = []
        self.globals: List[GlobalVariable] = []
        self.struct_types: Dict[str, StructType] = {}

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
        self.globals.append(gv)
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
