"""Cheap structural function snapshots for transactional passes.

A :class:`FunctionSnapshot` records enough of a function's mutable
structure -- block order, per-block instruction lists, operand lists
and names -- to restore the function to its captured state after a
misbehaving pass, without cloning a single value.  Capture is O(size)
tuple copies; no use lists are touched until :meth:`restore` runs.

Identity preservation is the load-bearing property: restore puts the
*original* block and instruction objects back, so worklists, id()-keyed
memo sets and analyses holding references across a rollback stay valid.
Values created by the rolled-back pass are detached (their operand
references dropped) and simply become garbage.

Because the snapshot records operand lists but not instruction
attributes, passes must follow the snapshot/commit contract (see
``docs/tutorial_new_pass.md``): mutate IR only by inserting/erasing
instructions and rewriting operands, never by reassigning attributes
like ``BinaryOp.opcode`` in place on pre-existing instructions.  Every
in-tree pass already works this way.

Module-level state is covered too: passes may append globals (RoLAG
emits ``__rolag*`` mismatch tables); restore removes globals that did
not exist at capture and rewinds the fresh-name counters.

A :class:`FrozenModule` is the other kind of snapshot: a whole module
as picklable text, for shipping one built module to another process
and thawing independent copies of it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .instructions import Instruction
from .module import BasicBlock, Function, Module
from .parser import parse_module
from .printer import print_module
from .values import Value
from .verifier import verify_module

#: One captured instruction: (object, name, operand list at capture).
_InstEntry = Tuple[Instruction, str, Tuple[Value, ...]]

#: One captured block: (object, name, captured instructions).
_BlockEntry = Tuple[BasicBlock, str, List[_InstEntry]]


class FunctionSnapshot:
    """The rollback point of one transaction over one function."""

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.next_temp = fn._next_temp
        self.blocks: List[_BlockEntry] = [
            (
                block,
                block.name,
                [
                    (inst, inst.name, tuple(inst.operands))
                    for inst in block.instructions
                ],
            )
            for block in fn.blocks
        ]
        self.module: Optional[Module] = fn.module
        if self.module is not None:
            self.global_ids = frozenset(id(g) for g in self.module.globals)
            self.global_count = len(self.module.globals)
            self.next_global = self.module._next_global
        else:
            self.global_ids = frozenset()
            self.global_count = 0
            self.next_global = 0

    # -- inspection --------------------------------------------------------

    def touched_blocks(self) -> List[BasicBlock]:
        """Current blocks whose structure differs from the snapshot.

        New blocks, blocks with inserted/erased/renamed instructions and
        blocks with rewritten operands all count.  Blocks the pass
        *erased* are not returned (they are no longer in the function);
        their disappearance always shows up as operand changes in the
        surviving branches and phis, so an incremental re-verify of the
        returned blocks still sees every edit site.
        """
        snapshot_of = {
            id(block): (name, entries) for block, name, entries in self.blocks
        }
        touched: List[BasicBlock] = []
        for block in self.fn.blocks:
            entry = snapshot_of.get(id(block))
            if entry is None:
                touched.append(block)
                continue
            name, entries = entry
            if block.name != name or len(block.instructions) != len(entries):
                touched.append(block)
                continue
            for inst, (snap_inst, snap_name, snap_ops) in zip(
                block.instructions, entries
            ):
                if (
                    inst is not snap_inst
                    or inst.name != snap_name
                    or len(inst.operands) != len(snap_ops)
                    or any(
                        a is not b for a, b in zip(inst.operands, snap_ops)
                    )
                ):
                    touched.append(block)
                    break
        return touched

    def changed(self) -> bool:
        """Whether the function (or its module's globals) was mutated."""
        if [id(b) for b in self.fn.blocks] != [
            id(b) for b, _, _ in self.blocks
        ]:
            return True
        if (
            self.module is not None
            and len(self.module.globals) != self.global_count
        ):
            return True
        return bool(self.touched_blocks())

    # -- rollback ----------------------------------------------------------

    def restore(self) -> None:
        """Put the function back exactly as captured.

        Safe to call whatever the pass did in between: instructions and
        blocks it erased are re-attached, ones it created are detached,
        operand rewrites are undone, and use lists are rebuilt
        consistently.  Calling restore on an unchanged function is a
        (wasteful) no-op.
        """
        fn = self.fn
        # Phase 1: drop every operand reference held by an instruction
        # that exists now or existed at capture, so the rebuild below
        # starts from clean use lists on every value.
        captured = set()
        for _, _, entries in self.blocks:
            for inst, _, _ in entries:
                captured.add(id(inst))
                inst.drop_all_references()
        for block in fn.blocks:
            for inst in block.instructions:
                if id(inst) not in captured:
                    inst.drop_all_references()
                    inst.parent = None
        # Phase 2: rebuild block and instruction lists from the
        # snapshot, re-registering each captured operand.
        fn.blocks = []
        for block, name, entries in self.blocks:
            block.name = name
            block.parent = fn
            block.instructions = []
            fn.blocks.append(block)
            for inst, inst_name, operands in entries:
                inst.name = inst_name
                inst.parent = block
                block.instructions.append(inst)
                for operand in operands:
                    inst.add_operand(operand)
        fn._next_temp = self.next_temp
        # Phase 3: remove globals the pass added (RoLAG mismatch tables
        # and the like) and rewind the module's fresh-name counter.
        if self.module is not None:
            self.module.globals = [
                g for g in self.module.globals if id(g) in self.global_ids
            ]
            self.module._next_global = self.next_global


@dataclass(frozen=True)
class FrozenModule:
    """A module as printed IR plus the fresh-name counters it cannot
    encode.

    ``pickle`` of a live :class:`Module` is no substitute: its object
    graph hits the recursion limit at the default depth, and interned
    types do not unpickle.  The printed text round-trips everything
    except the per-function ``_next_temp`` and the module's
    ``_next_global`` counters; they travel alongside, so names a pass
    derives in a thawed copy are spelled exactly as in the original.
    """

    text: str
    #: ``_next_temp`` of each function that has drawn a fresh name.
    next_temps: Dict[str, int]
    next_global: int

    @classmethod
    def freeze(cls, module: Module) -> "FrozenModule":
        """Capture ``module`` (which stays untouched and usable)."""
        return cls(
            text=print_module(module),
            next_temps={
                fn.name: fn._next_temp
                for fn in module.functions
                if fn._next_temp
            },
            next_global=module._next_global,
        )

    def thaw(self) -> Module:
        """A fresh, verified copy of the frozen module.

        Raises what :func:`parse_module` or :func:`verify_module`
        raise, exactly as loading a bad IR text would.
        """
        module = parse_module(self.text)
        for fn in module.functions:
            fn._next_temp = self.next_temps.get(fn.name, 0)
        module._next_global = self.next_global
        verify_module(module)
        return module
