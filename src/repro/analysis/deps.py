"""Block-level dependence graph.

The scheduling analysis of RoLAG (paper Section IV-D) must prove that
reordering a basic block into pre-loop / loop-iterations / post-loop
order preserves semantics.  That holds iff every dependence edge of the
original block still points forward in the new order.  This module
computes those edges: SSA def-use edges plus memory/side-effect
ordering edges refined by alias analysis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.instructions import Call, Instruction, Load, Store
from ..ir.module import BasicBlock
from ..ir.types import DataLayout, DEFAULT_LAYOUT
from .alias import AliasAnalysis, AliasResult


def _access_kind(inst: Instruction) -> Tuple[bool, bool]:
    """(reads, writes) memory classification for ordering purposes."""
    if isinstance(inst, Load):
        return True, False
    if isinstance(inst, Store):
        return False, True
    if isinstance(inst, Call):
        if inst.is_readnone():
            return False, False
        if inst.is_readonly():
            return True, False
        return True, True
    return False, False


class DependenceGraph:
    """Pairwise must-precede relation over one basic block.

    ``edges[j]`` holds the set of earlier indices i such that the
    instruction at i must execute before the instruction at j.
    """

    def __init__(
        self,
        block: BasicBlock,
        aa: AliasAnalysis,
        layout: DataLayout = DEFAULT_LAYOUT,
    ) -> None:
        self.block = block
        self.instructions: List[Instruction] = list(block.instructions)
        self.index: Dict[int, int] = {
            id(inst): i for i, inst in enumerate(self.instructions)
        }
        self.edges: List[Set[int]] = [set() for _ in self.instructions]
        self._build(aa, layout)

    def _build(self, aa: AliasAnalysis, layout: DataLayout) -> None:
        insts = self.instructions

        # SSA def-use edges within the block.
        for j, inst in enumerate(insts):
            for op in inst.operands:
                i = self.index.get(id(op))
                if i is not None and i < j:
                    self.edges[j].add(i)

        # Memory ordering edges.  Classify and locate each access once
        # up front: the pair loop below is quadratic in the number of
        # memory operations, so per-pair re-derivation dominates the
        # build on store-heavy (i.e. rollable) blocks.
        mem_ops = []
        for i, inst in enumerate(insts):
            reads, writes = _access_kind(inst)
            if reads or writes:
                mem_ops.append((i, inst, writes, self._location(inst, layout)))
        alias = aa.alias
        for a_pos in range(len(mem_ops)):
            i, inst_i, writes_i, loc_i = mem_ops[a_pos]
            for b_pos in range(a_pos + 1, len(mem_ops)):
                j, inst_j, writes_j, loc_j = mem_ops[b_pos]
                if not (writes_i or writes_j):
                    continue  # read-read never conflicts
                if loc_i is None or loc_j is None:
                    # A call with unknown effects conflicts with
                    # everything except the read-read pairs above.
                    self.edges[j].add(i)
                elif alias(*loc_i, *loc_j) is not AliasResult.NO:
                    self.edges[j].add(i)

    @staticmethod
    def _location(inst: Instruction, layout: DataLayout):
        if isinstance(inst, Load):
            return inst.pointer, layout.size_of(inst.type)
        if isinstance(inst, Store):
            return inst.pointer, layout.size_of(inst.value.type)
        return None  # call: unknown location

    def must_precede(self, a: Instruction, b: Instruction) -> bool:
        """Direct dependence edge a -> b (not transitive)."""
        i = self.index[id(a)]
        j = self.index[id(b)]
        if i > j:
            i, j = j, i
        return i in self.edges[j]

    def respects(self, new_order: List[Instruction]) -> bool:
        """Whether ``new_order`` preserves every dependence edge.

        Instructions of the block that ``new_order`` omits are skipped,
        as are entries of ``new_order`` from outside the block.
        """
        # position[i]: where block instruction i sits in ``new_order``.
        position: List[Optional[int]] = [None] * len(self.instructions)
        index = self.index
        for p, inst in enumerate(new_order):
            i = index.get(id(inst))
            if i is not None:
                position[i] = p
        for j, preds in enumerate(self.edges):
            pj = position[j]
            if pj is None:
                continue
            for i in preds:
                pi = position[i]
                if pi is not None and pi >= pj:
                    return False
        return True

    def transitive_predecessors(self, roots: List[Instruction]) -> Set[int]:
        """Indices of all instructions the roots transitively depend on."""
        result: Set[int] = set()
        work = [self.index[id(r)] for r in roots if id(r) in self.index]
        while work:
            j = work.pop()
            for i in self.edges[j]:
                if i not in result:
                    result.add(i)
                    work.append(i)
        return result
