"""Scheduling analysis (paper Section IV-D, Fig. 13).

Loop rolling reorders the basic block into

    [preceding code + mismatch/invariant setup]
    [iteration 0 instructions] [iteration 1 instructions] ...
    [succeeding code]

which is legal iff every dependence edge of the original block still
points forward.  This module computes the iteration-ordered sequence of
claimed instructions from the alignment graph, partitions the remaining
instructions into *before* (transitively depended on by the loop) and
*after*, and then replays all dependence edges against the new order.
Cyclic dependences that cross the loop boundary have no valid placement
and are rejected by the same check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..analysis.alias import AliasAnalysis
from ..analysis.deps import DependenceGraph
from ..ir.instructions import Instruction, Phi
from ..ir.module import BasicBlock
from .alignment import (
    AlignmentGraph,
    AlignNode,
    BinOpNeutralNode,
    MatchNode,
    MinMaxReductionNode,
    PtrSeqNode,
    RecurrenceNode,
    ReductionNode,
)


@dataclass
class Schedule:
    """A legal rearrangement of the block around the future loop."""

    block: BasicBlock
    #: Non-loop instructions that must run before the loop (block order).
    before: List[Instruction]
    #: Claimed instructions in iteration-major execution order.
    loop_order: List[Instruction]
    #: Per-lane instruction lists (lane-major view of ``loop_order``).
    lanes: List[List[Instruction]]
    #: Non-loop instructions that run after the loop (block order).
    after: List[Instruction]


def _iteration_order(
    ag: AlignmentGraph, deps: DependenceGraph
) -> Optional[List[List[Instruction]]]:
    """Claimed instructions per lane, operands before users.

    Mirrors the code generator's post-order emission so that the
    simulated order matches what will actually execute.  Block
    positions come from ``deps.index``, built once for the unmodified
    block.
    """
    root = ag.roots[0] if ag.roots else None
    if root is None:
        return None

    index = deps.index
    block_insts = deps.instructions
    lane_count = root.lane_count
    lanes: List[List[Instruction]] = [[] for _ in range(lane_count)]
    emitted: Set[int] = set()

    def emit(node: AlignNode, seen: Set[int]) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, RecurrenceNode):
            return  # breaks the cycle: lowered to a phi
        for child in node.children:
            emit(child, seen)
        if isinstance(node, MatchNode):
            for lane, inst in enumerate(node.lanes):
                if id(inst) not in emitted:
                    emitted.add(id(inst))
                    lanes[lane].append(inst)
        elif isinstance(node, BinOpNeutralNode):
            for lane, value in enumerate(node.lanes):
                claim = ag.claimed.get(id(value))
                if claim is not None and claim[0] is node:
                    if id(value) not in emitted:
                        emitted.add(id(value))
                        lanes[lane].append(value)
        elif isinstance(node, PtrSeqNode):
            # Claimed GEP chains, innermost first.
            by_lane: Dict[int, List[int]] = {}
            for inst_id, (owner, lane) in ag.claimed.items():
                if owner is node:
                    position = index.get(inst_id)
                    if position is not None:
                        by_lane.setdefault(lane, []).append(position)
            for lane, positions in by_lane.items():
                for position in sorted(positions):
                    inst = block_insts[position]
                    if id(inst) not in emitted:
                        emitted.add(id(inst))
                        lanes[lane].append(inst)
        elif isinstance(node, (ReductionNode, MinMaxReductionNode)):
            # The tree's internal ops are pure register arithmetic that
            # associativity lets us re-distribute one-per-iteration.
            # Model them conservatively in the *last* lane, in block
            # order: every leaf then precedes every accumulation and all
            # original internal-internal edges stay satisfied.
            ordered = sorted(node.internal, key=lambda i: index[id(i)])
            for inst in ordered:
                if id(inst) not in emitted:
                    emitted.add(id(inst))
                    lanes[lane_count - 1].append(inst)

    seen: Set[int] = set()
    emit(root, seen)
    # Within each lane, follow the original block order: the original
    # iteration already executed in a legal order, and the code
    # generator emits the loop body position-ordered to match (which is
    # what lets joint groups interleave, e.g. all loads of an iteration
    # before its stores).
    for lane in lanes:
        lane.sort(key=lambda i: index[id(i)])
    return lanes


def analyze_scheduling(
    ag: AlignmentGraph,
    aa: Optional[AliasAnalysis] = None,
    deps: Optional[DependenceGraph] = None,
) -> Optional[Schedule]:
    """Check whether the block can be reordered for rolling.

    Returns the schedule on success, ``None`` when any dependence would
    be violated (including cyclic dependences across the loop
    boundary).  ``deps`` may be supplied to reuse one dependence graph
    across several candidate seed groups of the same (unmodified)
    block.
    """
    block = ag.block
    fn = block.parent
    assert fn is not None
    if aa is None:
        aa = AliasAnalysis(fn)

    if deps is None:
        deps = DependenceGraph(block, aa)

    lanes = _iteration_order(ag, deps)
    if lanes is None:
        return None
    loop_order: List[Instruction] = [inst for lane in lanes for inst in lane]
    loop_ids = {id(inst) for inst in loop_order}
    if len(loop_ids) != len(ag.claimed):
        return None  # some claimed instruction was not scheduled

    # Partition the rest: phis and transitive dependencies go before.
    depended = deps.transitive_predecessors(loop_order)
    before: List[Instruction] = []
    after: List[Instruction] = []
    for position, inst in enumerate(block.instructions):
        if id(inst) in loop_ids:
            continue
        if isinstance(inst, Phi):
            before.append(inst)
        elif inst.is_terminator:
            continue  # re-attached by the code generator
        elif position in depended:
            before.append(inst)
        else:
            after.append(inst)

    terminator = block.terminator
    new_order = before + loop_order + after
    if terminator is not None:
        new_order = new_order + [terminator]
    if not deps.respects(new_order):
        return None
    return Schedule(block, before, loop_order, lanes, after)
