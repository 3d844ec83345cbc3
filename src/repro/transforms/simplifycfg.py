"""Control-flow graph cleanup.

Three classic simplifications:

* fold conditional branches on constant conditions,
* merge a block into its unique predecessor when that predecessor
  branches unconditionally to it,
* delete unreachable blocks (fixing up phis).
"""

from __future__ import annotations

from ..analysis.domtree import DominatorTree
from ..ir.instructions import Br
from ..ir.module import Function
from ..ir.values import ConstantInt


def simplify_cfg(fn: Function) -> int:
    """Run CFG cleanup to a fixed point; returns change count."""
    if fn.is_declaration:
        return 0
    total = 0
    changed = True
    while changed:
        changed = False

        # Fold constant conditional branches.
        for block in fn.blocks:
            term = block.terminator
            if isinstance(term, Br) and term.is_conditional:
                cond = term.condition
                if isinstance(cond, ConstantInt):
                    taken = term.successors()[0 if cond.value else 1]
                    dead = term.successors()[1 if cond.value else 0]
                    if dead is not taken:
                        for phi in dead.phis():
                            phi.remove_incoming(block)
                    term.erase_from_parent()
                    block.append(Br(taken))
                    changed = True
                    total += 1

        # Remove unreachable blocks.
        domtree = DominatorTree(fn)
        for block in list(fn.blocks):
            if block is fn.entry or domtree.is_reachable(block):
                continue
            for succ in block.successors():
                for phi in succ.phis():
                    phi.remove_incoming(block)
            block.erase_from_parent()
            changed = True
            total += 1

        # Merge single-successor/single-predecessor pairs.
        for block in list(fn.blocks):
            term = block.terminator
            if not isinstance(term, Br) or term.is_conditional:
                continue
            succ = term.successors()[0]
            if succ is block or succ is fn.entry:
                continue
            preds = succ.predecessors()
            if len(preds) != 1 or preds[0] is not block:
                continue
            if succ.phis():
                for phi in list(succ.phis()):
                    incoming = phi.incoming_for(block)
                    if incoming is None:
                        break
                    phi.replace_all_uses_with(incoming)
                    phi.erase_from_parent()
                if succ.phis():
                    continue
            term.erase_from_parent()
            for inst in list(succ.instructions):
                succ.remove(inst)
                block.append(inst)
            # Successor blocks' phis must now name `block` as the pred.
            succ.replace_all_uses_with(block)
            succ.erase_from_parent()
            changed = True
            total += 1
    return total
