"""Promote memory to registers (SSA construction).

The mini-C frontend lowers every local variable to an ``alloca`` with
explicit loads and stores.  This pass promotes scalar allocas to SSA
values using the classic iterated-dominance-frontier phi placement of
Cytron et al., followed by a renaming walk over the dominator tree.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..analysis.domtree import DominatorTree
from ..ir.instructions import Alloca, Instruction, Load, Phi, Store
from ..ir.module import BasicBlock, Function
from ..ir.values import UndefValue, Value


def _is_promotable(alloca: Alloca) -> bool:
    """Scalar alloca used only by direct loads and full-width stores."""
    if not alloca.allocated_type.is_first_class:
        return False
    if alloca.allocated_type.is_array or alloca.allocated_type.is_struct:
        return False
    for use in alloca.uses:
        user = use.user
        if isinstance(user, Load) and user.pointer is alloca:
            continue
        if isinstance(user, Store) and user.pointer is alloca and user.value is not alloca:
            continue
        return False
    return True


def promote_memory_to_registers(fn: Function) -> int:
    """Run mem2reg on ``fn``; returns the number of promoted allocas."""
    if fn.is_declaration:
        return 0
    allocas = [
        inst
        for inst in fn.entry.instructions
        if isinstance(inst, Alloca) and _is_promotable(inst)
    ]
    if not allocas:
        return 0

    domtree = DominatorTree(fn)
    frontiers = domtree.dominance_frontiers()
    children: Dict[int, List[BasicBlock]] = {}
    for block in domtree.order:
        idom = domtree.idom.get(block)
        if idom is not None:
            children.setdefault(id(idom), []).append(block)

    phi_homes: Dict[int, Alloca] = {}

    for alloca in allocas:
        def_blocks: List[BasicBlock] = []
        for use in alloca.uses:
            user = use.user
            if isinstance(user, Store) and user.parent is not None:
                if user.parent not in def_blocks:
                    def_blocks.append(user.parent)
        # Iterated dominance frontier.
        placed: Set[int] = set()
        work = list(def_blocks)
        while work:
            block = work.pop()
            for frontier_block in frontiers.get(block, ()):
                if id(frontier_block) in placed:
                    continue
                placed.add(id(frontier_block))
                phi = Phi(alloca.allocated_type, fn.next_name("m2r"))
                frontier_block.insert(0, phi)
                phi_homes[id(phi)] = alloca
                work.append(frontier_block)

    # Renaming walk.
    stacks: Dict[int, List[Value]] = {id(a): [] for a in allocas}
    alloca_ids = {id(a) for a in allocas}

    def current(alloca: Alloca) -> Value:
        stack = stacks[id(alloca)]
        if stack:
            return stack[-1]
        return UndefValue(alloca.allocated_type)

    def erase(inst: Instruction) -> None:
        # ``erase_from_parent`` minus the ``list.remove``: the caller
        # rebuilds the block's list once.
        inst.parent = None
        inst.drop_all_references()

    def rename(block: BasicBlock) -> None:
        pushed: List[Alloca] = []
        kept: List[Instruction] = []
        for inst in block.instructions:
            if isinstance(inst, Load) and id(inst.pointer) in alloca_ids:
                inst.replace_all_uses_with(current(inst.pointer))
                erase(inst)
            elif isinstance(inst, Store) and id(inst.pointer) in alloca_ids:
                home = inst.pointer
                stacks[id(home)].append(inst.value)
                pushed.append(home)
                erase(inst)
            else:
                if isinstance(inst, Phi) and id(inst) in phi_homes:
                    home = phi_homes[id(inst)]
                    stacks[id(home)].append(inst)
                    pushed.append(home)
                kept.append(inst)
        if len(kept) != len(block.instructions):
            block.set_instructions(kept)
        for succ in block.successors():
            for phi in succ.phis():
                home = phi_homes.get(id(phi))
                if home is not None:
                    phi.add_incoming(current(home), block)
        for child in children.get(id(block), ()):
            rename(child)
        for home in reversed(pushed):
            stacks[id(home)].pop()

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000))
    try:
        rename(fn.entry)
    finally:
        sys.setrecursionlimit(old_limit)

    for alloca in allocas:
        if not alloca.uses:
            alloca.erase_from_parent()

    # Prune phis in unreachable blocks or with missing incomings left over.
    for block in fn.blocks:
        if not domtree.is_reachable(block):
            continue
        for phi in list(block.phis()):
            if id(phi) in phi_homes and not phi.incoming:
                phi.replace_all_uses_with(UndefValue(phi.type))
                phi.erase_from_parent()

    return len(allocas)
