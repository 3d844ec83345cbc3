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
not exist at capture.  Fresh names need no rewinding: they derive from
the live IR (see :meth:`Function.next_name`), and restore makes the
function forget the names the rolled-back pass drew.

Mutation stamps make the common questions O(1).  Every edit of a body
moves its function's stamp -- the IR's lists stamp in-place edits
themselves, so no pass has to be trusted to use the right method (see
:class:`Function`).  A snapshot records the function's and the
module's stamps:
:meth:`FunctionSnapshot.changed` answers ``False`` at once while both
are where they were, and only when one has moved does it fall back to
the structural diff, which still answers ``False`` for a pass that
edited and then undid its edit.  :meth:`FunctionSnapshot.restore`
puts both stamps back, so the restored state is recognised as the one
captured -- a body verified before the transaction is not re-verified
after its rollback -- while the rolled-back state's stamp is never
drawn again: the next edit draws a fresh one.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .instructions import Instruction
from .module import BasicBlock, Function, Module
from .values import Value, fresh_stamp

#: One captured instruction: (object, name, operand list at capture).
_InstEntry = Tuple[Instruction, str, Tuple[Value, ...]]

#: One captured block: (object, name, captured instructions).
_BlockEntry = Tuple[BasicBlock, str, List[_InstEntry]]


class FunctionSnapshot:
    """The rollback point of one transaction over one function."""

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.blocks: List[_BlockEntry] = [
            (
                block,
                block.name,
                [
                    (inst, inst.name, tuple(inst._operands))
                    for inst in block.instructions
                ],
            )
            for block in fn.blocks
        ]
        self.stamp = fn.stamp
        self.module: Optional[Module] = fn.module
        if self.module is not None:
            self.module_stamp = self.module.stamp
            self.global_ids = frozenset(id(g) for g in self.module.globals)
            self.global_count = len(self.module.globals)
        else:
            self.module_stamp = 0
            self.global_ids = frozenset()
            self.global_count = 0

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
        """Whether the function (or its module's globals) was mutated:
        ``False`` in O(1) while no stamp has moved, else the structural
        diff's answer."""
        if self._stamps_unchanged():
            return False
        return self._diff()

    def _stamps_unchanged(self) -> bool:
        """Whether the function and its module still hold the stamps
        they held at capture."""
        return self.fn.stamp == self.stamp and (
            self.module is None or self.module.stamp == self.module_stamp
        )

    def _diff(self) -> bool:
        """The structural diff: whether the block list, the global count
        or any block's contents differ from the capture."""
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
        fn.blocks = [block for block, _, _ in self.blocks]
        for block, name, entries in self.blocks:
            block.name = name
            block.parent = fn
            block.instructions = [inst for inst, _, _ in entries]
            for inst, inst_name, operands in entries:
                inst.name = inst_name
                inst.parent = block
                for operand in operands:
                    inst.add_operand(operand)
        fn.reset_names()
        fn.stamp = self.stamp
        # Phase 3: remove globals the pass added (RoLAG mismatch tables
        # and the like).  The module is back in its captured state, and
        # takes that state's stamp, when exactly the captured globals
        # remain.
        module = self.module
        if module is not None:
            module.globals = [
                g for g in module.globals if id(g) in self.global_ids
            ]
            module.stamp = (
                self.module_stamp
                if len(module.globals) == self.global_count
                else fresh_stamp()
            )
