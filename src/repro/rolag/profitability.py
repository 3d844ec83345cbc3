"""Profitability analysis (paper Section IV-F).

Estimates, with the target code-size cost model, how many bytes the
original straight-line region costs versus the rolled loop (control
overhead, loop body, mismatch-array setup, external-use extraction,
and optionally the constant data the arrays occupy).  The smaller
version wins.  Like LLVM's TTI-based estimate this is a heuristic: the
paper itself reports false positives (Section V-A), and the evaluation
harness measures the *actual* post-codegen sizes independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..analysis.costmodel import CodeSizeCostModel
from ..ir.instructions import Instruction
from ..ir.types import ArrayType, DEFAULT_LAYOUT
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
from .config import RolagConfig


#: phi + add + icmp + conditional br + preheader br
LOOP_CONTROL_COST = 2 + 3 + 3 + 2 + 2


@dataclass
class ProfitabilityReport:
    """Byte estimates for one candidate rolling."""

    original_cost: int
    rolled_cost: int
    rodata_bytes: int

    @property
    def profitable(self) -> bool:
        """Whether the rolled form is estimated smaller."""
        return self.rolled_cost < self.original_cost

    @property
    def estimated_saving(self) -> int:
        """Estimated bytes saved (may be negative)."""
        return self.original_cost - self.rolled_cost


def estimate(
    ag: AlignmentGraph,
    cost_model: CodeSizeCostModel,
    config: RolagConfig,
) -> ProfitabilityReport:
    """Compare the straight-line region against its rolled form."""
    claimed = ag.claimed_instructions()
    original = 0
    for inst in claimed:
        original += cost_model.instruction_cost(inst)

    rolled = LOOP_CONTROL_COST
    rodata = 0
    external = _external_use_summary(ag, claimed)

    seen: Set[int] = set()
    for root in ag.roots:
        for node in root.walk():
            if id(node) in seen:
                continue
            seen.add(id(node))
            body, pre, data = _node_cost(node, ag, cost_model, config)
            rolled += body + pre
            rodata += data

    # External-use extraction: one store inside the loop per node, one
    # load per extracted lane, unless only the final lane is consumed.
    for node_id, (node, lanes) in external.items():
        if set(lanes) == {node.lane_count - 1}:
            continue
        rolled += cost_model.table["store"]
        rolled += cost_model.table["load"] * len(lanes)

    if config.count_const_data:
        rolled += rodata
    return ProfitabilityReport(original, rolled, rodata)


def _external_use_summary(
    ag: AlignmentGraph,
    claimed: List[Instruction],
) -> Dict[int, Tuple[AlignNode, Set[int]]]:
    """Lanes of each node whose value is used outside the graph.

    ``claimed`` is ``ag.claimed_instructions()``, computed once by the
    caller.
    """
    result: Dict[int, Tuple[AlignNode, Set[int]]] = {}
    for inst in claimed:
        node, lane = ag.claimed[id(inst)]
        if isinstance(node, (ReductionNode, MinMaxReductionNode)):
            continue
        for use in inst.uses:
            user = use.user
            if isinstance(user, Instruction) and id(user) not in ag.claimed:
                result.setdefault(id(node), (node, set()))[1].add(lane)
    return result


def _node_cost(
    node: AlignNode,
    ag: AlignmentGraph,
    cm: CodeSizeCostModel,
    config: RolagConfig,
) -> Tuple[int, int, int]:
    """(loop-body bytes, preheader bytes, rodata bytes) for one node."""
    if isinstance(node, IdenticalNode):
        return 0, 0, 0
    if isinstance(node, SequenceNode):
        body = 0
        if node.step != 1:
            body += cm.table["mul"]
        if node.start != 0:
            body += cm.table["add"]
        return body, 0, 0
    if isinstance(node, MismatchNode):
        elem = node.element_type
        arr_bytes = DEFAULT_LAYOUT.size_of(ArrayType(elem, node.lane_count))
        if node.all_constant:
            # gep folds into the load; global operand needs a rip-rel ref.
            return cm.table["load"] + 3, 0, arr_bytes
        # Runtime mismatch values: one stack-slot store per lane in the
        # preheader, plus a couple of bytes per lane for the register
        # pressure / frame addressing those spills cost in practice.
        pre = node.lane_count * (cm.table["store"] + 2)
        return cm.table["load"], pre, 0
    if isinstance(node, PtrSeqNode):
        # Typed strides fold into the consumer's addressing mode; the
        # index adjustment costs one add/sub when non-trivial.
        elem_size = None
        if node.result_type is node.base.type:
            try:
                elem_size = DEFAULT_LAYOUT.size_of(node.result_type.pointee)
            except ValueError:
                elem_size = None
        if (
            elem_size
            and abs(node.step) == elem_size
            and node.start % elem_size == 0
        ):
            trivial = node.step > 0 and node.start == 0
            return (0 if trivial else cm.table["add"]), 0, 0
        body = 0
        if node.step not in (1, 2, 4, 8):
            body += cm.table["mul"]
        if node.start != 0:
            body += cm.table["add"]
        # The address itself folds into the consuming load/store/lea.
        body += 1
        return body, 0, 0
    if isinstance(node, RecurrenceNode):
        return cm.table["phi"], 0, 0
    if isinstance(node, ReductionNode):
        return cm.table["phi"] + cm.table[node.opcode], 0, 0
    if isinstance(node, MinMaxReductionNode):
        return cm.table["phi"] + cm.table["icmp"] + cm.table["select"], 0, 0
    if isinstance(node, JointNode):
        return 0, 0, 0
    if isinstance(node, BinOpNeutralNode):
        return cm.table[node.opcode], 0, 0
    if isinstance(node, MatchNode):
        return cm.instruction_cost(node.rep), 0, 0
    raise TypeError(f"no cost rule for {node!r}")
