"""Loop code generation from an alignment graph (paper Section IV-E).

Given a legal :class:`~repro.rolag.scheduling.Schedule`, rewrites the
block into

    preheader:  preceding code, mismatch-array setup    -> br loop
    loop:       iv phi, recurrence/accumulator phis, body,
                external-use extraction stores, iv bump, compare
    exit:       extraction loads, succeeding code, old terminator

following the layout of the paper's Fig. 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.builder import IRBuilder
from ..ir.instructions import (
    Alloca,
    Br,
    Cast,
    GetElementPtr,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import ArrayType, I64, I8, IntType, PointerType, Type
from ..ir.values import (
    ConstantAggregate,
    ConstantInt,
    Value,
    neutral_element,
)
from .alignment import (
    AlignmentGraph,
    AlignNode,
    BinOpNeutralNode,
    IdenticalNode,
    JointNode,
    MatchNode,
    MinMaxReductionNode,
    MismatchNode,
    PtrSeqNode,
    RecurrenceNode,
    ReductionNode,
    SequenceNode,
)
from .scheduling import Schedule


@dataclass
class RolledLoop:
    """Artifacts of a successful rolling, for stats and tests."""

    preheader: BasicBlock
    loop: BasicBlock
    exit: BasicBlock
    lane_count: int
    #: Bytes of constant data emitted into globals (mismatch arrays).
    rodata_bytes: int = 0
    #: Stack arrays created (mismatch inputs + external-use extraction).
    stack_arrays: int = 0


class LoopCodeGenerator:
    """Materialises the rolled loop for one alignment graph."""

    def __init__(self, ag: AlignmentGraph, schedule: Schedule) -> None:
        self.ag = ag
        self.schedule = schedule
        self.block = ag.block
        self.function: Function = self.block.parent
        self.module: Module = self.function.module
        assert self.module is not None, "rolling requires a module context"
        self.lane_count = ag.roots[0].lane_count
        self.lowered: Dict[int, Value] = {}
        self._emitted: set = set()
        self.pre_extra: List[Instruction] = []
        self.entry_allocas: List[Instruction] = []
        self.exit_extra: List[Instruction] = []
        self.pending_recurrences: List[Tuple[Phi, AlignNode]] = []
        self.rodata_bytes = 0
        self.stack_arrays = 0
        self._loop_builder: Optional[IRBuilder] = None
        self._phi_slots = 0
        self.iv: Optional[Phi] = None

    # ----- main entry --------------------------------------------------------

    def run(self) -> RolledLoop:
        """Perform the whole rewrite; returns the created blocks."""
        fn = self.function
        block = self.block
        index = fn.blocks.index(block)
        loop_block = BasicBlock(fn.next_name("rolag.loop"))
        exit_block = BasicBlock(fn.next_name("rolag.exit"))
        fn.insert_block(index + 1, loop_block)
        fn.insert_block(index + 2, exit_block)
        self.loop_block = loop_block
        self.exit_block = exit_block

        builder = IRBuilder(loop_block)
        self._loop_builder = builder

        # Induction variable.
        iv = Phi(I64, fn.next_name("rolag.iv"))
        loop_block.append(iv)
        self._phi_slots = 1
        iv.add_incoming(ConstantInt(I64, 0), block)
        self.iv = iv

        # Lower the graph body in original-program order: nodes that
        # replace block instructions are emitted by ascending block
        # position of their earliest claimed instruction, with operands
        # pulled in recursively.  This keeps the per-iteration order of
        # the original code (essential for joint groups, where e.g. an
        # iteration's loads must precede its stores).
        for node in self._emission_order():
            self._lower(node)
        for root in self.ag.roots:
            self._lower(root)

        # Patch recurrence phis now that their targets exist.
        for phi, target in self.pending_recurrences:
            phi.add_incoming(self.lowered[id(target)], loop_block)

        # External-use extraction (needs the lowered values).
        self._handle_external_uses()

        # Loop control.
        iv_next = builder.add(iv, builder.i64(1), name=fn.next_name("rolag.iv.next"))
        cond = builder.icmp(
            "ult", iv_next, builder.i64(self.lane_count), name=fn.next_name("rolag.cond")
        )
        builder.cond_br(cond, loop_block, exit_block)
        iv.add_incoming(iv_next, loop_block)

        # Rebuild the original block and the exit block.
        old_terminator = block.terminator
        assert old_terminator is not None
        claimed_in_order = self.ag.claimed_instructions()

        exit_block.set_instructions(
            list(self.exit_extra) + list(self.schedule.after) + [old_terminator]
        )
        block.set_instructions(
            list(self.schedule.before) + list(self.pre_extra) + [Br(loop_block)]
        )

        # Entry allocas go to the very top of the entry block.
        entry = fn.entry
        for alloca in reversed(self.entry_allocas):
            entry.insert(0, alloca)

        # Phis in the old successors now flow in from the exit block.
        for succ in old_terminator.successors():
            for phi in succ.phis():
                for slot in range(1, len(phi.operands), 2):
                    if phi.operands[slot] is block:
                        phi.set_operand(slot, exit_block)

        # Finally delete the replaced instructions.
        for inst in reversed(claimed_in_order):
            if inst.uses:
                remaining = [u.user for u in inst.uses]
                raise RuntimeError(
                    f"claimed instruction {inst!r} still used by {remaining}"
                )
            inst.parent = None
            inst.drop_all_references()

        return RolledLoop(
            preheader=block,
            loop=loop_block,
            exit=exit_block,
            lane_count=self.lane_count,
            rodata_bytes=self.rodata_bytes,
            stack_arrays=self.stack_arrays,
        )

    # ----- node lowering ------------------------------------------------------

    def _emission_order(self) -> List[AlignNode]:
        """Instruction-replacing nodes by earliest claimed position."""
        position = self.ag.index
        node_position: Dict[int, int] = {}
        node_by_id: Dict[int, AlignNode] = {}
        for inst_id, (node, _lane) in self.ag.claimed.items():
            pos = position.get(inst_id)
            if pos is None:
                continue
            node_by_id[id(node)] = node
            prior = node_position.get(id(node))
            if prior is None or pos < prior:
                node_position[id(node)] = pos
        ordered = sorted(node_by_id.values(), key=lambda n: node_position[id(n)])
        return ordered

    def _lower(self, node: AlignNode) -> Optional[Value]:
        if id(node) in self._emitted:
            return self.lowered.get(id(node))
        self._emitted.add(id(node))
        value = self._lower_impl(node)
        if value is not None:
            self.lowered[id(node)] = value
        return value

    def _lower_impl(self, node: AlignNode) -> Optional[Value]:
        if isinstance(node, IdenticalNode):
            return node.value
        if isinstance(node, SequenceNode):
            return self._lower_sequence(node)
        if isinstance(node, MismatchNode):
            return self._lower_mismatch(node)
        if isinstance(node, PtrSeqNode):
            return self._lower_ptr_seq(node)
        if isinstance(node, RecurrenceNode):
            return self._lower_recurrence(node)
        if isinstance(node, ReductionNode):
            return self._lower_reduction(node)
        if isinstance(node, MinMaxReductionNode):
            return self._lower_minmax(node)
        if isinstance(node, JointNode):
            for child in node.children:
                self._lower(child)
            return None
        if isinstance(node, BinOpNeutralNode):
            lhs = self._lower(node.children[0])
            rhs = self._lower(node.children[1])
            return self._loop_builder.binop(node.opcode, lhs, rhs)
        if isinstance(node, MatchNode):
            return self._lower_match(node)
        raise TypeError(f"cannot lower {node!r}")

    def _iv_as(self, ty: IntType) -> Value:
        if ty is I64:
            return self.iv
        builder = self._loop_builder
        if ty.bits < 64:
            return builder.trunc(self.iv, ty)
        return builder.zext(self.iv, ty)

    def _lower_sequence(self, node: SequenceNode) -> Value:
        builder = self._loop_builder
        ty = node.int_type
        value = self._iv_as(ty)
        if node.step != 1:
            value = builder.mul(value, ConstantInt(ty, node.step))
        if node.start != 0:
            value = builder.add(value, ConstantInt(ty, node.start))
        return value

    def _lower_mismatch(self, node: MismatchNode) -> Value:
        builder = self._loop_builder
        fn = self.function
        n = node.lane_count
        elem_ty = node.element_type
        arr_ty = ArrayType(elem_ty, n)
        if node.all_constant:
            name = self.module.unique_global_name("__rolag.vals")
            gv = self.module.add_global(
                name, arr_ty, ConstantAggregate(arr_ty, list(node.lanes)), True
            )
            self.rodata_bytes += self._array_bytes(arr_ty)
            pointer = gv
        else:
            alloca = Alloca(arr_ty, fn.next_name("rolag.mm"))
            self.entry_allocas.append(alloca)
            self.stack_arrays += 1
            for lane, value in enumerate(node.lanes):
                gep = GetElementPtr(
                    arr_ty, alloca, [ConstantInt(I64, 0), ConstantInt(I64, lane)],
                    fn.next_name(),
                )
                store = Store(value, gep)
                self.pre_extra.append(gep)
                self.pre_extra.append(store)
            pointer = alloca
        gep = builder.gep(
            arr_ty, pointer, [ConstantInt(I64, 0), self.iv], fn.next_name()
        )
        return builder.load(elem_ty, gep, fn.next_name())

    def _array_bytes(self, arr_ty: ArrayType) -> int:
        from ..ir.types import DEFAULT_LAYOUT

        return DEFAULT_LAYOUT.size_of(arr_ty)

    def _lower_ptr_seq(self, node: PtrSeqNode) -> Value:
        builder = self._loop_builder
        fn = self.function
        base = node.base
        i8p = PointerType(I8)

        # Preferred form: a typed GEP indexed by the induction variable,
        # which folds into the consumer's addressing mode.
        typed = self._typed_ptr_seq(node)
        if typed is not None:
            return typed

        if base.type is not i8p:
            cast = Cast("bitcast", base, i8p, fn.next_name("rolag.base"))
            self.pre_extra.append(cast)
            base8 = cast
        else:
            base8 = base
        offset: Value = self.iv
        if node.step != 1:
            offset = builder.mul(offset, builder.i64(node.step))
        if node.start != 0:
            offset = builder.add(offset, builder.i64(node.start))
        gep = builder.gep(I8, base8, [offset], fn.next_name("rolag.ptr"))
        if node.result_type is i8p:
            return gep
        return builder.bitcast(gep, node.result_type, fn.next_name())

    def _typed_ptr_seq(self, node: PtrSeqNode) -> Optional[Value]:
        """``gep T, base, (start/|s| +- iv)`` when the stride is one T."""
        from ..ir.types import DEFAULT_LAYOUT

        base = node.base
        if base.type is not node.result_type:
            return None
        pointee = node.result_type.pointee
        try:
            elem_size = DEFAULT_LAYOUT.size_of(pointee)
        except ValueError:
            return None
        if elem_size == 0 or abs(node.step) != elem_size:
            return None
        if node.start % elem_size != 0:
            return None
        builder = self._loop_builder
        fn = self.function
        idx0 = node.start // elem_size
        if node.step > 0:
            index: Value = self.iv
            if idx0 != 0:
                index = builder.add(self.iv, builder.i64(idx0))
        else:
            index = builder.sub(builder.i64(idx0), self.iv)
        return builder.gep(pointee, base, [index], fn.next_name("rolag.ptr"))

    def _lower_recurrence(self, node: RecurrenceNode) -> Value:
        ty = node.init.type
        phi = Phi(ty, self.function.next_name("rolag.rec"))
        self.loop_block.insert(self._phi_slots, phi)
        self._phi_slots += 1
        phi.add_incoming(node.init, self.block)
        self.pending_recurrences.append((phi, node.target))
        return phi

    def _lower_reduction(self, node: ReductionNode) -> Value:
        builder = self._loop_builder
        ty = node.root.type
        start: Value
        if node.init is not None:
            start = node.init
        else:
            neutral = neutral_element(node.opcode, ty)
            assert neutral is not None, "reduction without neutral element"
            start = neutral
        acc = Phi(ty, self.function.next_name("rolag.acc"))
        self.loop_block.insert(self._phi_slots, acc)
        self._phi_slots += 1
        acc.add_incoming(start, self.block)
        leaf = self._lower(node.children[0])
        acc_next = builder.binop(node.opcode, acc, leaf)
        acc_next.rename(self.function.next_name("rolag.acc.next"))
        acc.add_incoming(acc_next, self.loop_block)
        # The original tree root's value is the final accumulator.
        node.root.replace_all_uses_with(acc_next)
        return acc_next

    def _lower_match(self, node: MatchNode) -> Optional[Value]:
        operands = [self._lower(child) for child in node.children]
        clone = node.rep.clone()
        for slot, value in enumerate(operands):
            clone.set_operand(slot, value)
        if not clone.type.is_void:
            clone.name = self.function.next_name(node.rep.name or "rolag.v")
        builder = self._loop_builder
        builder._insert(clone, clone.name)
        return clone if not clone.type.is_void else None

    def _lower_minmax(self, node: MinMaxReductionNode) -> Value:
        """Roll a compare+select chain into an accumulator phi."""
        builder = self._loop_builder
        ty = node.root.type
        acc = Phi(ty, self.function.next_name("rolag.mm.acc"))
        self.loop_block.insert(self._phi_slots, acc)
        self._phi_slots += 1
        acc.add_incoming(node.init, self.block)
        leaf = self._lower(node.children[0])

        rep_cmp = node.links[0][0]
        cmp = rep_cmp.clone()
        cmp.name = self.function.next_name("rolag.mm.cmp")
        if node.cmp_leaf_first:
            cmp.set_operand(0, leaf)
            cmp.set_operand(1, acc)
        else:
            cmp.set_operand(0, acc)
            cmp.set_operand(1, leaf)
        builder._insert(cmp, cmp.name)

        if node.select_leaf_first:
            sel = Select(cmp, leaf, acc)
        else:
            sel = Select(cmp, acc, leaf)
        sel.name = self.function.next_name("rolag.mm.sel")
        builder._insert(sel, sel.name)
        acc.add_incoming(sel, self.loop_block)
        node.root.replace_all_uses_with(sel)
        return sel

    # ----- external uses -------------------------------------------------------

    def _handle_external_uses(self) -> None:
        fn = self.function
        builder = self._loop_builder
        claimed = self.ag.claimed

        # Collect per-node external uses: node -> {lane: [Use, ...]}
        per_node: Dict[int, Tuple[AlignNode, Dict[int, List]]] = {}
        for inst in self.ag.claimed_instructions():
            node, lane = claimed[id(inst)]
            if isinstance(node, (ReductionNode, MinMaxReductionNode)):
                continue  # root handled during lowering; internals private
            for use in list(inst.uses):
                user = use.user
                if not isinstance(user, Instruction):
                    continue
                if id(user) in claimed:
                    continue
                entry = per_node.setdefault(id(node), (node, {}))
                entry[1].setdefault(lane, []).append(use)

        for node, lanes in per_node.values():
            node_value = self.lowered.get(id(node))
            if node_value is None:
                raise RuntimeError(f"external use of unlowered node {node!r}")
            only_last = set(lanes) == {node.lane_count - 1}
            if only_last:
                # The last iteration's value is simply the loop value,
                # which dominates the exit block.
                for use in lanes[node.lane_count - 1]:
                    use.user.set_operand(use.index, node_value)
                continue
            elem_ty = node_value.type
            arr_ty = ArrayType(elem_ty, node.lane_count)
            alloca = Alloca(arr_ty, fn.next_name("rolag.out"))
            self.entry_allocas.append(alloca)
            self.stack_arrays += 1
            slot = builder.gep(
                arr_ty, alloca, [ConstantInt(I64, 0), self.iv], fn.next_name()
            )
            builder.store(node_value, slot)
            for lane, uses in sorted(lanes.items()):
                gep = GetElementPtr(
                    arr_ty,
                    alloca,
                    [ConstantInt(I64, 0), ConstantInt(I64, lane)],
                    fn.next_name(),
                )
                load = Load(elem_ty, gep, fn.next_name("rolag.ext"))
                self.exit_extra.append(gep)
                self.exit_extra.append(load)
                for use in uses:
                    use.user.set_operand(use.index, load)


def generate_rolled_loop(ag: AlignmentGraph, schedule: Schedule) -> RolledLoop:
    """Generate the rolled loop; the block is modified in place."""
    return LoopCodeGenerator(ag, schedule).run()
