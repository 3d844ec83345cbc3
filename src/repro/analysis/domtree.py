"""Dominator tree and dominance frontiers.

Implements the iterative algorithm of Cooper, Harvey and Kennedy
("A Simple, Fast Dominance Algorithm") over a reverse-postorder
numbering of the CFG (:func:`repro.ir.module.reverse_postorder`,
re-exported here).  Used by the verifier (SSA dominance checks) and
by :mod:`repro.transforms.mem2reg` (phi placement).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.instructions import Instruction, Phi
from ..ir.module import BasicBlock, Function, reverse_postorder
from ..ir.values import Value


class DominatorTree:
    """Immediate-dominator tree for the reachable CFG of a function."""

    def __init__(self, fn: Function) -> None:
        self.function = fn
        self.order = reverse_postorder(fn)
        self._number: Dict[int, int] = {
            id(block): i for i, block in enumerate(self.order)
        }
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._compute()
        self._depth: Dict[int, int] = {}
        self._compute_depths()
        self._positions: Dict[int, Dict[int, int]] = {}

    def _compute(self) -> None:
        if not self.order:
            return
        entry = self.order[0]
        idom: Dict[int, BasicBlock] = {id(entry): entry}

        def intersect(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while self._number[id(a)] > self._number[id(b)]:
                    a = idom[id(a)]
                while self._number[id(b)] > self._number[id(a)]:
                    b = idom[id(b)]
            return a

        changed = True
        while changed:
            changed = False
            for block in self.order[1:]:
                new_idom: Optional[BasicBlock] = None
                for pred in block.predecessors():
                    if id(pred) not in self._number:
                        continue  # unreachable predecessor
                    if id(pred) in idom:
                        if new_idom is None:
                            new_idom = pred
                        else:
                            new_idom = intersect(pred, new_idom)
                if new_idom is not None and idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True

        for block in self.order:
            if block is entry:
                self.idom[block] = None
            else:
                self.idom[block] = idom.get(id(block))

    def _compute_depths(self) -> None:
        for block in self.order:
            depth = 0
            cursor: Optional[BasicBlock] = self.idom.get(block)
            while cursor is not None:
                depth += 1
                cursor = self.idom.get(cursor)
            self._depth[id(block)] = depth

    def is_reachable(self, block: BasicBlock) -> bool:
        """Whether ``block`` is reachable from entry."""
        return id(block) in self._number

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Whether block ``a`` dominates block ``b`` (reflexive)."""
        if not (self.is_reachable(a) and self.is_reachable(b)):
            return False
        cursor: Optional[BasicBlock] = b
        while cursor is not None:
            if cursor is a:
                return True
            cursor = self.idom.get(cursor)
        return False

    def strictly_dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Dominance excluding ``a is b``."""
        return a is not b and self.dominates_block(a, b)

    def dominates(self, definition: Value, use_site: Instruction) -> bool:
        """Whether a value definition dominates a use site.

        Arguments, constants and globals dominate everything.  For an
        instruction definition the use site must come after it in the
        same block or in a dominated block.  Phi uses are checked at the
        end of the corresponding incoming block.

        The tree is a snapshot of the function at construction: ``idom``
        is computed then, and the first same-block query on a block
        memoizes that block's ``{id(inst): position}`` map, so every
        later query is O(1).  Do not edit the function while the tree
        is in use; build a new tree instead.  An instruction whose
        ``parent`` names a block that does not hold it raises
        ``KeyError``.
        """
        if not isinstance(definition, Instruction):
            return True
        def_block = definition.parent
        use_block = use_site.parent
        if def_block is None or use_block is None:
            return False

        if isinstance(use_site, Phi):
            # Each phi use must dominate the end of its incoming block.
            ok = True
            for value, pred in use_site.incoming:
                if value is definition:
                    if not self.dominates_block(def_block, pred):
                        ok = False
            return ok

        if def_block is use_block:
            positions = self._block_positions(def_block)
            return positions[id(definition)] < positions[id(use_site)]
        return self.strictly_dominates_block(def_block, use_block)

    def _block_positions(self, block: BasicBlock) -> Dict[int, int]:
        positions = self._positions.get(id(block))
        if positions is None:
            # First occurrence wins, as with ``list.index``, should a
            # corrupted block hold one instruction twice.
            positions = {}
            for i, inst in enumerate(block.instructions):
                positions.setdefault(id(inst), i)
            self._positions[id(block)] = positions
        return positions

    def dominance_frontiers(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """Dominance frontier of every reachable block.

        Frontier members are listed in discovery order rather than a
        set, so passes that allocate names while walking frontiers
        (mem2reg) produce byte-identical IR run over run.
        """
        frontiers: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in self.order
        }
        members: Dict[int, Set[int]] = {id(block): set() for block in self.order}
        for block in self.order:
            preds = [p for p in block.predecessors() if self.is_reachable(p)]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner: Optional[BasicBlock] = pred
                while runner is not None and runner is not self.idom[block]:
                    if id(block) not in members[id(runner)]:
                        members[id(runner)].add(id(block))
                        frontiers[runner].append(block)
                    runner = self.idom.get(runner)
        return frontiers
