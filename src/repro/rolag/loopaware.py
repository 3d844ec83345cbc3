"""Loop-aware rolling (the paper's Section V-C improvement).

When RoLAG's seed block *is itself the body of a counted loop* that was
partially unrolled, generating a fresh inner loop leaves the outer loop
control in place -- the paper notes LLVM's reroller wins those
head-to-heads because "it reuses the same loop for rerolling while
RoLAG currently creates a new inner loop [...] or simply making it loop
aware" would fix it.  This module is that fix: when the alignment graph
proves the block's lanes are exactly the unrolled iterations of the
surrounding loop, the loop is re-rolled *in place* -- lane 0 stays, the
other lanes are deleted, and the latch step shrinks -- instead of
nesting a new loop.

Applicability is deliberately narrow (mirroring what in-place rewriting
can express):

* the block is a canonical counted loop with induction phi ``iv``;
* every iv-varying node is the ``iv + (0, u, 2u, ...)`` neutral-add
  pattern with ``step == lanes * u``;
* loop-carried reductions start at a phi of this block whose latch is
  the reduction root;
* no other special nodes (sequences elsewhere, pointer strides,
  mismatch arrays, recurrences) and no external uses outside the loop
  except through reduction roots.

Everything else falls back to the general inner-loop code generator.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.loopinfo import CountedLoop, find_loops, match_counted_loop
from ..ir.instructions import Instruction, Phi
from ..ir.module import BasicBlock
from ..ir.values import ConstantInt
from .alignment import (
    AlignmentGraph,
    BinOpNeutralNode,
    IdenticalNode,
    JointNode,
    MatchNode,
    MinMaxReductionNode,
    ReductionNode,
    SequenceNode,
)


class _NotApplicable(Exception):
    """Raised internally when the in-place rewrite cannot be used."""


def _find_enclosing_counted_loop(block: BasicBlock) -> Optional[CountedLoop]:
    fn = block.parent
    if fn is None:
        return None
    for loop in find_loops(fn):
        if loop.header is block and loop.is_single_block:
            counted = match_counted_loop(loop)
            if counted is not None:
                return counted
    return None


def _classify_iv_pattern(
    node: BinOpNeutralNode, iv: Phi
) -> Optional[int]:
    """Return the unit stride ``u`` if node is ``iv + (0, u, 2u, ...)``."""
    if node.opcode != "add":
        return None
    lhs, rhs = node.children
    seq: Optional[SequenceNode] = None
    base: Optional[IdenticalNode] = None
    for a, b in ((lhs, rhs), (rhs, lhs)):
        if isinstance(a, IdenticalNode) and isinstance(b, SequenceNode):
            base, seq = a, b
            break
    if base is None or seq is None:
        return None
    if base.value is not iv:
        return None
    if seq.start != 0 or seq.step == 0:
        return None
    return seq.step


def _validate(ag: AlignmentGraph, counted: CountedLoop) -> int:
    """Check applicability; returns the unit stride ``u``."""
    iv = counted.iv
    lane_count = ag.roots[0].lane_count
    unit: Optional[int] = None

    for root in ag.roots:
        for node in root.walk():
            if isinstance(node, (MatchNode, IdenticalNode, JointNode)):
                continue
            if isinstance(node, BinOpNeutralNode):
                u = _classify_iv_pattern(node, iv)
                if u is None:
                    raise _NotApplicable("binop node is not the iv pattern")
                if unit is not None and unit != u:
                    raise _NotApplicable("conflicting iv strides")
                unit = u
                continue
            if isinstance(node, SequenceNode):
                # Only legal underneath a validated iv pattern; a bare
                # sequence cannot be recomputed from the outer iv.
                if not _sequence_is_iv_child(ag, node, iv):
                    raise _NotApplicable("free-standing sequence")
                continue
            if isinstance(node, (ReductionNode, MinMaxReductionNode)):
                if not _reduction_is_loop_carried(node, counted):
                    raise _NotApplicable("reduction is not the loop's phi")
                continue
            raise _NotApplicable(f"unsupported node kind {node.kind}")

    if unit is None:
        # Nothing varies with iv: only legal if every lane is identical
        # work, which in a counted loop would be an infinite-progress
        # bug; refuse and let the general path handle it.
        raise _NotApplicable("no iv-varying node found")
    if counted.step != unit * lane_count:
        raise _NotApplicable("latch step does not cover the lanes")

    # Every extra phi must be a recognised reduction accumulator.
    reduction_phis = {
        id(node.init)
        for root in ag.roots
        for node in root.walk()
        if isinstance(node, (ReductionNode, MinMaxReductionNode))
    }
    for phi in counted.block.phis():
        if phi is iv:
            continue
        if id(phi) not in reduction_phis:
            raise _NotApplicable("unhandled loop-carried phi")

    # No claimed value may escape the loop, except reduction roots.
    reduction_roots = {
        id(node.root)
        for root in ag.roots
        for node in root.walk()
        if isinstance(node, (ReductionNode, MinMaxReductionNode))
    }
    block = counted.block
    for inst in ag.claimed_instructions():
        if id(inst) in reduction_roots:
            continue
        for use in inst.uses:
            user = use.user
            if not isinstance(user, Instruction) or user.parent is not block:
                raise _NotApplicable("claimed value escapes the loop")

    # Full coverage: shrinking the latch step changes how often every
    # instruction in the block executes, so everything outside the
    # loop control must belong to the alignment graph (exactly the
    # restriction LLVM's reroller imposes).
    control_ids = {
        id(counted.iv_next),
        id(counted.cmp),
        id(block.terminator),
    }
    for inst in block.instructions:
        if isinstance(inst, Phi):
            continue
        if id(inst) in control_ids or id(inst) in ag.claimed:
            continue
        raise _NotApplicable("block not fully covered by the graph")
    return unit


def _sequence_is_iv_child(
    ag: AlignmentGraph, seq: SequenceNode, iv: Phi
) -> bool:
    for root in ag.roots:
        for node in root.walk():
            if isinstance(node, BinOpNeutralNode) and seq in node.children:
                if _classify_iv_pattern(node, iv) is not None:
                    return True
    return False


def _reduction_is_loop_carried(node, counted: CountedLoop) -> bool:
    init = node.init
    if not isinstance(init, Phi) or init.parent is not counted.block:
        return False
    return init.incoming_for(counted.block) is node.root


def try_loop_aware_reroll(ag: AlignmentGraph) -> Optional[int]:
    """Re-roll the enclosing loop in place.

    Returns the number of instructions removed on success, or ``None``
    when the pattern does not apply (the caller then uses the general
    inner-loop code generator).
    """
    block = ag.block
    if not ag.roots:
        return None
    counted = _find_enclosing_counted_loop(block)
    if counted is None:
        return None
    try:
        unit = _validate(ag, counted)
    except _NotApplicable:
        return None

    iv = counted.iv
    reductions = [
        node
        for root in ag.roots
        for node in root.walk()
        if isinstance(node, (ReductionNode, MinMaxReductionNode))
    ]

    # 1. Rewire reductions: the accumulator phi keeps lane 0's link.
    for node in reductions:
        if isinstance(node, MinMaxReductionNode):
            first = node.links[0][1]
            doomed_links: List[Instruction] = []
            # Delete from the chain's root backwards so every link's
            # consumers are gone before the link itself.
            for cmp, sel in reversed(node.links[1:]):
                doomed_links += [sel, cmp]
        else:
            ordered = sorted(
                node.internal,
                key=lambda i: ag.index[id(i)],
            )
            first = ordered[0]
            doomed_links = list(reversed(ordered[1:]))
        last = node.root
        for use in list(last.uses):
            user = use.user
            if user is node.init:  # the accumulator phi's latch slot
                user.set_operand(use.index, first)
            elif (
                isinstance(user, Instruction)
                and user.parent is not block
            ):
                user.set_operand(use.index, first)
        for link in doomed_links:
            if link.uses:
                # Tree/chain collection guarantees single-use interior
                # links; anything else means the graph was corrupted.
                raise RuntimeError("loop-aware reroll: shared chain link")
            link.erase_from_parent()

    # 2. Delete every claimed instruction belonging to lanes >= 1
    #    (reduction internals were already handled above).
    removed = 0
    reduction_ids = {id(i) for node in reductions for i in node.internal}
    doomed: List[Instruction] = []
    for inst in block.instructions:
        info = ag.claimed.get(id(inst))
        if info is None or id(inst) in reduction_ids:
            continue
        node, lane = info
        if lane >= 1:
            doomed.append(inst)
    for inst in reversed(doomed):
        if inst.uses:
            # Lane consistency (alignment) plus the escape check in
            # _validate guarantee deletion in reverse block order
            # leaves no dangling users.
            raise RuntimeError("loop-aware reroll inconsistency")
        inst.erase_from_parent()
        removed += 1

    # 3. Shrink the latch step to the unit stride.
    iv_next = counted.iv_next
    lhs, rhs = iv_next.operands
    if isinstance(rhs, ConstantInt):
        iv_next.set_operand(1, ConstantInt(iv.type, unit))
    else:
        iv_next.set_operand(0, ConstantInt(iv.type, unit))
    return removed + 1
