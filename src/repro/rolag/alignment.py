"""Alignment-graph construction (the heart of RoLAG).

Starting from a group of seed instructions -- one per future loop
iteration, called *lanes* here -- the builder follows use-def chains
bottom-up and classifies each operand group into a node kind
(paper Sections IV-B and IV-C):

``MatchNode``
    isomorphic instructions, one per lane, merged into one loop
    instruction;
``IdenticalNode``
    the same loop-invariant value in every lane;
``SequenceNode``
    integer constants with a uniform stride, recomputed from the
    induction variable (IV-C1);
``PtrSeqNode``
    pointers at constant, uniformly-strided byte offsets from a common
    base -- subsumes the "neutral pointer operation" rule (IV-C2) and
    struct-as-array accesses (Fig. 4);
``BinOpNeutralNode``
    a dominant binary opcode with neutral-element filling for the
    other lanes (IV-C3);
``RecurrenceNode``
    a chained dependence turned into a loop-carried phi (IV-C4);
``ReductionNode``
    a reduction tree re-rolled through an accumulator (IV-C5);
``JointNode``
    alternating seed groups rolled into one loop (IV-C6);
``MismatchNode``
    anything else: per-lane values materialised through a memory array.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.instructions import (
    BinaryOp,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Phi,
    Store,
)
from ..ir.module import BasicBlock
from ..ir.types import DataLayout, DEFAULT_LAYOUT, IntType, PointerType, Type
from ..ir.values import Constant, ConstantFloat, ConstantInt, Value, neutral_element
from .config import RolagConfig
from .seeds import block_position_index


class AlignNode:
    """Base class of alignment-graph nodes."""

    kind: str = "<abstract>"

    def __init__(self, lanes: Sequence[Value]) -> None:
        self.lanes: List[Value] = list(lanes)
        self.children: List["AlignNode"] = []

    @property
    def lane_count(self) -> int:
        """Number of lanes, i.e. iterations of the rolled loop."""
        return len(self.lanes)

    def walk(self, seen=None):
        """All nodes reachable from this one (pre-order, deduplicated)."""
        if seen is None:
            seen = set()
        if id(self) in seen:
            return
        seen.add(id(self))
        yield self
        for child in self.children:
            yield from child.walk(seen)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} x{self.lane_count}>"


class MatchNode(AlignNode):
    """Isomorphic instructions, one per lane."""

    kind = "match"

    def __init__(self, lanes: Sequence[Instruction]) -> None:
        super().__init__(lanes)
        #: Per-lane operand order (after commutative reordering):
        #: operand_map[lane][slot] gives the operand to align in `slot`.
        self.operand_order: List[List[Value]] = [list(l.operands) for l in lanes]

    @property
    def rep(self) -> Instruction:
        """Lane 0's instruction: the template the loop body clones."""
        return self.lanes[0]


class IdenticalNode(AlignNode):
    """The same value in every lane (loop invariant)."""

    kind = "identical"

    @property
    def value(self) -> Value:
        """The shared loop-invariant value."""
        return self.lanes[0]


class SequenceNode(AlignNode):
    """Integer constants ``start, start+step, start+2*step, ...``."""

    kind = "sequence"

    def __init__(self, lanes: Sequence[ConstantInt], start: int, step: int) -> None:
        super().__init__(lanes)
        self.start = start
        self.step = step
        self.int_type: IntType = lanes[0].type


class MismatchNode(AlignNode):
    """Arbitrary per-lane values, loaded from an array at run time."""

    kind = "mismatch"

    @property
    def element_type(self) -> Type:
        """The common type of all lanes."""
        return self.lanes[0].type

    @property
    def all_constant(self) -> bool:
        """Whether the lanes can live in a constant table."""
        return all(isinstance(v, (ConstantInt, ConstantFloat)) for v in self.lanes)


class PtrSeqNode(AlignNode):
    """Pointers at strided constant byte offsets from a common base.

    Lanes are GEP instructions (claimed) or the base pointer itself
    (offset zero, the neutral pointer rule).
    """

    kind = "ptr_seq"

    def __init__(
        self,
        lanes: Sequence[Value],
        base: Value,
        start: int,
        step: int,
        result_type: PointerType,
    ) -> None:
        super().__init__(lanes)
        self.base = base
        self.start = start
        self.step = step
        self.result_type = result_type


class BinOpNeutralNode(AlignNode):
    """A dominant binary opcode; other lanes padded with the neutral."""

    kind = "binop_neutral"

    def __init__(
        self,
        lanes: Sequence[Value],
        opcode: str,
        lhs_group: Sequence[Value],
        rhs_group: Sequence[Value],
    ) -> None:
        super().__init__(lanes)
        self.opcode = opcode
        self.lhs_group = list(lhs_group)
        self.rhs_group = list(rhs_group)


class RecurrenceNode(AlignNode):
    """A chained dependence: lane k consumes lane k-1's value."""

    kind = "recurrence"

    def __init__(self, lanes: Sequence[Value], init: Value, target: "MatchNode") -> None:
        super().__init__(lanes)
        self.init = init
        self.target = target


class ReductionNode(AlignNode):
    """A reduction tree rolled via an accumulator phi.

    ``init`` is the accumulator's starting value.  It is ``None`` for a
    pure tree (the phi then starts at the opcode's neutral element) or
    a leaf that could not align with the others -- typically the
    running accumulator of an enclosing unrolled loop, or an ``a[0]``
    style seed value.
    """

    kind = "reduction"

    def __init__(
        self,
        root: BinaryOp,
        internal: Sequence[BinaryOp],
        leaves: Sequence[Value],
        init: Optional[Value] = None,
    ) -> None:
        super().__init__(leaves)
        self.root = root
        self.internal = list(internal)
        self.opcode = root.opcode
        self.init = init


class MinMaxReductionNode(AlignNode):
    """A min/max reduction over a compare+select chain (Fig. 20b).

    Each link is ``sel_k = select (cmp leaf_k, acc_{k-1}), ...`` picking
    either the new value or the running extreme.  Unlike associative
    binop reductions there is no neutral element, so the chain-start
    accumulator always becomes the phi's initial value.
    """

    kind = "minmax"

    def __init__(
        self,
        links: Sequence[Tuple[Instruction, Instruction]],
        leaves: Sequence[Value],
        init: Value,
        predicate: str,
        cmp_leaf_first: bool,
        select_leaf_first: bool,
    ) -> None:
        super().__init__(leaves)
        self.links = list(links)  # [(cmp, select), ...] chain order
        self.init = init
        self.predicate = predicate
        self.cmp_leaf_first = cmp_leaf_first
        self.select_leaf_first = select_leaf_first

    @property
    def root(self) -> Instruction:
        """The chain's final select (the reduction's value)."""
        return self.links[-1][1]

    @property
    def internal(self) -> List[Instruction]:
        """Every chain instruction (compares and selects)."""
        flat: List[Instruction] = []
        for cmp, sel in self.links:
            flat.append(cmp)
            flat.append(sel)
        return flat


class JointNode(AlignNode):
    """Alternating seed groups merged into one loop body."""

    kind = "joint"

    def __init__(self, lane_count: int) -> None:
        super().__init__([None] * lane_count)  # type: ignore[list-item]


def values_identical(a: Value, b: Value) -> bool:
    """Identity, or structural equality for simple constants."""
    if a is b:
        return True
    if isinstance(a, (ConstantInt, ConstantFloat)) and isinstance(
        b, (ConstantInt, ConstantFloat)
    ):
        return a == b
    return False


class AlignmentGraph:
    """Builds and owns the alignment graph for one seed group."""

    def __init__(
        self,
        block: BasicBlock,
        config: Optional[RolagConfig] = None,
        layout: DataLayout = DEFAULT_LAYOUT,
        index: Optional[Dict[int, int]] = None,
    ) -> None:
        self.block = block
        self.config = config or RolagConfig()
        self.layout = layout
        #: ``id(instruction) -> block position`` of the block as it is
        #: while the graph is built and consumed (the pipeline hands in
        #: ``DependenceGraph.index``); claimed instructions are looked
        #: up and ordered through it, never by rescanning the block.
        self.index = index if index is not None else block_position_index(block)
        #: instruction id -> (node, lane) for every claimed instruction.
        self.claimed: Dict[int, Tuple[AlignNode, int]] = {}
        self.roots: List[AlignNode] = []
        self._memo: Dict[Tuple[int, ...], AlignNode] = {}
        self._stack: List[MatchNode] = []
        #: Memoized instruction fingerprints (see seeds.py); valid for
        #: this graph's lifetime -- instructions are only mutated later,
        #: by codegen, after the graph has been consumed.
        self._fp_cache: Dict[int, tuple] = {}
        self.valid = True

    # ----- public entry points ----------------------------------------------

    def build_from_seeds(self, seeds: Sequence[Instruction]) -> Optional[AlignNode]:
        """Build the graph from one group of seed instructions."""
        root = self._build(list(seeds))
        if not self.valid:
            return None
        if not isinstance(root, MatchNode):
            return None
        self.roots = [root]
        if not self._check_lane_consistency():
            return None
        return root

    def build_reduction(
        self, root: BinaryOp, internal: Sequence[BinaryOp], leaves: Sequence[Value]
    ) -> Optional[ReductionNode]:
        """Build the graph for a reduction tree (leaves become seeds).

        When the first leaf obviously cannot align with the rest (it is
        the running accumulator phi of an unrolled loop, or a seed
        value like ``a[0]``), it becomes the accumulator's initial
        value instead of a lane.
        """
        leaves = list(leaves)
        init: Optional[Value] = None
        if len(leaves) >= 3 and self._leaf_is_outlier(leaves):
            init = leaves[0]
            leaves = leaves[1:]
        if len(leaves) < 2:
            return None
        node = ReductionNode(root, internal, leaves, init)
        for inst in internal:
            if id(inst) in self.claimed:
                return None
            self.claimed[id(inst)] = (node, 0)
        child = self._build(leaves)
        if not self.valid:
            return None
        node.children = [child]
        self.roots = [node]
        if not self._check_lane_consistency():
            return None
        return node

    def build_minmax_reduction(
        self,
        links: Sequence[Tuple[Instruction, Instruction]],
        leaves: Sequence[Value],
        init: Value,
        predicate: str,
        cmp_leaf_first: bool,
        select_leaf_first: bool,
    ) -> Optional[MinMaxReductionNode]:
        """Build the graph for a compare+select min/max chain."""
        if len(leaves) < 2:
            return None
        node = MinMaxReductionNode(
            links, leaves, init, predicate, cmp_leaf_first, select_leaf_first
        )
        for inst in node.internal:
            if id(inst) in self.claimed:
                return None
            self.claimed[id(inst)] = (node, 0)
        child = self._build(list(leaves))
        if not self.valid:
            return None
        node.children = [child]
        self.roots = [node]
        if not self._check_lane_consistency():
            return None
        return node

    def _leaf_is_outlier(self, leaves: List[Value]) -> bool:
        """Whether ``leaves[0]`` clearly will not align with the rest."""
        rest = leaves[1:]
        first_rest = rest[0]
        if not isinstance(first_rest, Instruction):
            return False
        if not all(
            isinstance(v, Instruction)
            and v.parent is self.block
            and v.opcode == first_rest.opcode
            for v in rest
        ):
            return False
        head = leaves[0]
        if not isinstance(head, Instruction):
            return True
        return head.parent is not self.block or head.opcode != first_rest.opcode

    def build_joint(
        self, groups: Sequence[Sequence[Instruction]]
    ) -> Optional[JointNode]:
        """Build a joint graph over alternating seed groups."""
        lane_count = len(groups[0])
        joint = JointNode(lane_count)
        for group in groups:
            child = self._build(list(group))
            if not self.valid:
                return None
            if not isinstance(child, MatchNode):
                return None
            joint.children.append(child)
        self.roots = [joint]
        if not self._check_lane_consistency():
            return None
        return joint

    # ----- construction -------------------------------------------------------

    def _build(self, group: List[Value]) -> AlignNode:
        key = tuple(self._lane_key(v) for v in group)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        node = self._classify(group)
        self._memo[key] = node
        return node

    @staticmethod
    def _lane_key(value: Value) -> object:
        """Structural key for constants so equal groups share one node."""
        if isinstance(value, ConstantInt):
            return ("ci", value.type, value.value)
        if isinstance(value, ConstantFloat):
            return ("cf", value.type, value.value)
        return id(value)

    def _classify(self, group: List[Value]) -> AlignNode:
        first = group[0]

        # 1. Identical loop-invariant value in every lane.
        if all(values_identical(v, first) for v in group[1:]):
            # A value defined in this block *can* be identical (a shared
            # subexpression); it then stays outside the loop.
            return IdenticalNode(group)

        # 2. Monotonic integer sequences (IV-C1).
        seq = self._try_sequence(group)
        if seq is not None:
            return seq

        # 3. Chained dependences (IV-C4).
        rec = self._try_recurrence(group)
        if rec is not None:
            return rec

        # 4. Strided pointer offsets / neutral pointer ops (IV-C2).
        ptr = self._try_ptr_seq(group)
        if ptr is not None:
            return ptr

        # 5. Isomorphic instructions.
        match = self._try_match(group)
        if match is not None:
            return match

        # 6. Neutral elements of binary operators (IV-C3).
        neutral = self._try_binop_neutral(group)
        if neutral is not None:
            return neutral

        # 7. Give up: per-lane values via an array.  A mismatch array
        # needs one element type; heterogeneous groups poison the graph.
        ty = group[0].type
        if any(v.type is not ty for v in group[1:]) or ty.is_void:
            self.valid = False
        return MismatchNode(group)

    # ----- individual node matchers -------------------------------------------

    def _try_sequence(self, group: List[Value]) -> Optional[SequenceNode]:
        if not self.config.enable_sequences:
            return None
        if not all(isinstance(v, ConstantInt) for v in group):
            return None
        ty = group[0].type
        if any(v.type is not ty for v in group[1:]):
            return None
        values = [v.value for v in group]
        step = values[1] - values[0]
        if any(values[i] - values[i - 1] != step for i in range(2, len(values))):
            return None
        return SequenceNode(group, values[0], step)

    def _try_recurrence(self, group: List[Value]) -> Optional[RecurrenceNode]:
        if not self.config.enable_recurrence:
            return None
        n = len(group)
        for node in reversed(self._stack):
            if node.lane_count != n:
                continue
            if all(group[i + 1] is node.lanes[i] for i in range(n - 1)):
                init = group[0]
                # The init value must not itself be one of the node lanes.
                if any(init is lane for lane in node.lanes):
                    continue
                return RecurrenceNode(group, init, node)
        return None

    def _try_ptr_seq(self, group: List[Value]) -> Optional[PtrSeqNode]:
        if not self.config.enable_gep_neutral:
            return None
        if not group[0].type.is_pointer:
            return None
        from ..analysis.alias import constant_offset

        # Find the common base: strip constant-offset GEP chains.
        bases: List[Value] = []
        offsets: List[Optional[int]] = []
        for value in group:
            cursor = value
            offset = 0
            while isinstance(cursor, GetElementPtr) and cursor.parent is self.block:
                step = _gep_const_offset(cursor, self.layout)
                if step is None:
                    break
                offset += step
                cursor = cursor.pointer
            bases.append(cursor)
            offsets.append(offset)

        base = bases[0]
        if any(b is not base for b in bases[1:]):
            return None
        if any(off is None for off in offsets):
            return None
        # All-zero offsets means the group was identical anyway.
        concrete = [off for off in offsets]
        step = concrete[1] - concrete[0]
        if any(
            concrete[i] - concrete[i - 1] != step for i in range(2, len(concrete))
        ):
            return None
        if step == 0:
            return None
        result_type = group[0].type
        if any(v.type is not result_type for v in group[1:]):
            return None
        # Claim the GEP instructions that the node replaces.  A lane that
        # *is* the base pointer claims nothing (neutral pointer rule).
        # Intermediate GEPs in a chain are claimed too.
        to_claim: List[Tuple[Instruction, int]] = []
        group_ids = {id(v) for v in group}
        for lane, value in enumerate(group):
            cursor = value
            while cursor is not base:
                assert isinstance(cursor, GetElementPtr)
                to_claim.append((cursor, lane))
                if id(cursor) not in group_ids and len(cursor.uses) != 1:
                    # An intermediate GEP of the chain must feed only the
                    # chain; its value has no home in the rolled loop.
                    return None
                cursor = cursor.pointer
        claim_ids = set()
        for inst, _ in to_claim:
            if id(inst) in self.claimed or id(inst) in claim_ids:
                return None
            claim_ids.add(id(inst))
        node = PtrSeqNode(group, base, concrete[0], step, result_type)
        for inst, lane in to_claim:
            self.claimed[id(inst)] = (node, lane)
        return node

    def _match_shape_ok(self, group: List[Value]) -> bool:
        first = group[0]
        if not isinstance(first, Instruction):
            return False
        for value in group:
            if not isinstance(value, Instruction):
                return False
            if value.parent is not self.block:
                return False
            if id(value) in self.claimed:
                return False
        from ..ir.instructions import Alloca

        if isinstance(first, (Phi, Alloca)) or first.is_terminator:
            return False
        # One interned fingerprint per lane replaces the field-by-field
        # pairwise scan: equal fingerprints imply mergeable shapes.
        from .seeds import instruction_fingerprint

        first_fp = instruction_fingerprint(first, self._fp_cache)
        for value in group[1:]:
            if instruction_fingerprint(value, self._fp_cache) != first_fp:
                return False
        # Duplicate instructions across lanes cannot be merged.
        ids = {id(v) for v in group}
        if len(ids) != len(group):
            return False
        return True

    def _try_match(self, group: List[Value]) -> Optional[MatchNode]:
        if not self._match_shape_ok(group):
            return None
        first = group[0]

        # A GEP whose non-pointer indexing cannot be expressed with a
        # runtime index (struct field indices differ across lanes) must
        # not become a MatchNode; the PtrSeq path already tried.
        if isinstance(first, GetElementPtr):
            if not self._gep_indices_alignable(group):
                return None

        node = MatchNode(group)  # claim before recursing (cycles!)
        for lane, inst in enumerate(group):
            self.claimed[id(inst)] = (node, lane)

        if (
            isinstance(first, BinaryOp)
            and first.is_commutative
            and self.config.enable_commutative_reordering
        ):
            self._reorder_commutative(node)

        self._stack.append(node)
        try:
            for slot in range(len(first.operands)):
                operand_group = [node.operand_order[lane][slot] for lane in range(len(group))]
                child = self._build(operand_group)
                node.children.append(child)
        finally:
            self._stack.pop()
        return node

    def _gep_indices_alignable(self, group: List[Value]) -> bool:
        """Whether per-lane GEP indices may vary where they do vary."""
        first = group[0]
        num_indices = len(first.indices)
        ty: Type = first.source_type
        for slot in range(num_indices):
            lanes = [g.indices[slot] for g in group]
            varies = not all(values_identical(v, lanes[0]) for v in lanes[1:])
            if slot > 0:
                if ty.is_struct:
                    if varies:
                        return False  # struct indices must be constant
                    ty = ty.fields[lanes[0].value]
                    continue
                if ty.is_array:
                    ty = ty.element
                    continue
                return False
        return True

    def _reorder_commutative(self, node: MatchNode) -> None:
        """Per-lane operand swaps that maximise similarity to lane 0."""
        base_lhs, base_rhs = node.operand_order[0]
        for lane in range(1, node.lane_count):
            lhs, rhs = node.operand_order[lane]
            keep = _similarity(base_lhs, lhs) + _similarity(base_rhs, rhs)
            swap = _similarity(base_lhs, rhs) + _similarity(base_rhs, lhs)
            if swap > keep:
                node.operand_order[lane] = [rhs, lhs]

    def _try_binop_neutral(self, group: List[Value]) -> Optional[BinOpNeutralNode]:
        if not self.config.enable_binop_neutral:
            return None
        ty = group[0].type
        if any(v.type is not ty for v in group[1:]):
            return None
        candidates: Dict[str, int] = {}
        for value in group:
            if (
                isinstance(value, BinaryOp)
                and value.parent is self.block
                and id(value) not in self.claimed
            ):
                candidates[value.opcode] = candidates.get(value.opcode, 0) + 1
        best_opcode = None
        best_count = 0
        for opcode, count in candidates.items():
            if neutral_element(opcode, ty) is None:
                continue
            if opcode.startswith("f") and not self.config.fast_math:
                # x fop neutral is not bit-exact for all x (e.g. -0.0).
                continue
            if count > best_count:
                best_opcode, best_count = opcode, count
        if best_opcode is None or best_count < 2 or best_count == len(group):
            return None
        neutral = neutral_element(best_opcode, ty)
        assert neutral is not None

        lhs_group: List[Value] = []
        rhs_group: List[Value] = []
        matched: List[Tuple[Instruction, int]] = []
        matched_ids: set = set()
        for lane, value in enumerate(group):
            if (
                isinstance(value, BinaryOp)
                and value.opcode == best_opcode
                and value.parent is self.block
                and id(value) not in self.claimed
                and id(value) not in matched_ids
            ):
                lhs_group.append(value.operands[0])
                rhs_group.append(value.operands[1])
                matched.append((value, lane))
                matched_ids.add(id(value))
            else:
                # Mismatching lane: value  ==  value <op> neutral.
                lhs_group.append(value)
                rhs_group.append(neutral)

        node = BinOpNeutralNode(group, best_opcode, lhs_group, rhs_group)
        for inst, lane in matched:
            self.claimed[id(inst)] = (node, lane)
        self._stack.append(node)  # type: ignore[arg-type]
        try:
            node.children.append(self._build(lhs_group))
            node.children.append(self._build(rhs_group))
        finally:
            self._stack.pop()
        return node

    # ----- validation ------------------------------------------------------

    def _check_lane_consistency(self) -> bool:
        """Claimed instructions may only be used lane-consistently.

        A claimed instruction's value may be consumed (a) by another
        claimed instruction in the same lane, (b) by the lane+1 member
        of a recurrence target, or (c) outside the graph (external use,
        handled with extraction arrays).  Any other cross-lane use makes
        the rolled loop compute the wrong value.
        """
        recurrence_targets = {}
        for root in self.roots:
            for node in root.walk():
                if isinstance(node, RecurrenceNode):
                    recurrence_targets[id(node.target)] = node

        # Values consumed *outside* the loop body (mismatch arrays,
        # invariants, recurrence seeds, pointer bases) must not be
        # produced *inside* it.
        for root in self.roots:
            for node in root.walk():
                external_inputs: List[Value] = []
                if isinstance(node, (MismatchNode, IdenticalNode)):
                    external_inputs.extend(node.lanes)
                elif isinstance(node, PtrSeqNode):
                    external_inputs.append(node.base)
                elif isinstance(node, RecurrenceNode):
                    external_inputs.append(node.init)
                elif isinstance(node, ReductionNode) and node.init is not None:
                    external_inputs.append(node.init)
                elif isinstance(node, MinMaxReductionNode):
                    external_inputs.append(node.init)
                elif isinstance(node, BinOpNeutralNode):
                    pass  # its children cover the operand groups
                for value in external_inputs:
                    if id(value) in self.claimed:
                        return False

        for inst_id, (node, lane) in self.claimed.items():
            if isinstance(node, (ReductionNode, MinMaxReductionNode)):
                continue  # internal tree nodes checked separately
            inst = self._claimed_instruction(node, lane, inst_id)
            if inst is None:
                continue
            for use in inst.uses:
                user = use.user
                if not isinstance(user, Instruction):
                    return False
                claim = self.claimed.get(id(user))
                if claim is None:
                    continue  # external use
                user_node, user_lane = claim
                if user_lane == lane:
                    continue
                if (
                    user_lane == lane + 1
                    and id(user_node) in recurrence_targets
                ):
                    continue
                if isinstance(user_node, (ReductionNode, MinMaxReductionNode)):
                    continue
                return False
        return True

    def _claimed_instruction(
        self, node: AlignNode, lane: int, inst_id: int
    ) -> Optional[Instruction]:
        if isinstance(node, MatchNode):
            inst = node.lanes[lane]
            if id(inst) == inst_id:
                return inst
        position = self.index.get(inst_id)
        return None if position is None else self.block.instructions[position]

    # ----- queries used by scheduling / codegen --------------------------------

    def claimed_instructions(self) -> List[Instruction]:
        """Claimed instructions, in block order."""
        index = self.index
        insts = self.block.instructions
        return [
            insts[position]
            for position in sorted(
                index[inst_id] for inst_id in self.claimed if inst_id in index
            )
        ]

    def node_histogram(self) -> Dict[str, int]:
        """Node-kind counts (for the Fig. 16 / Fig. 19 breakdowns)."""
        from collections import Counter

        counts: Counter = Counter()
        for root in self.roots:
            for node in root.walk():
                counts[node.kind] += 1
        return dict(counts)


def _gep_const_offset(gep: GetElementPtr, layout: DataLayout) -> Optional[int]:
    from ..analysis.alias import _gep_constant_offset

    return _gep_constant_offset(gep, layout)


def _similarity(a: Value, b: Value, depth: int = 2) -> int:
    """Alignment-likelihood score for a pair of candidate lane operands.

    Looks ``depth`` levels into the use-def chains, in the spirit of
    Look-Ahead SLP (which the paper's related-work section suggests
    adapting): two ``mul`` instructions whose own operands also align
    score higher than two ``mul`` of unrelated values, which lets the
    commutative reordering pick the profitable operand order even when
    both orders match at the top level.
    """
    if values_identical(a, b):
        return 8
    if isinstance(a, Instruction) and isinstance(b, Instruction):
        if a.opcode == b.opcode and a.type is b.type:
            score = 4
            if depth > 0 and len(a.operands) == len(b.operands):
                child = 0
                if (
                    isinstance(a, BinaryOp)
                    and a.is_commutative
                    and len(a.operands) == 2
                ):
                    straight = _similarity(
                        a.operands[0], b.operands[0], depth - 1
                    ) + _similarity(a.operands[1], b.operands[1], depth - 1)
                    swapped = _similarity(
                        a.operands[0], b.operands[1], depth - 1
                    ) + _similarity(a.operands[1], b.operands[0], depth - 1)
                    child = max(straight, swapped)
                else:
                    child = sum(
                        _similarity(x, y, depth - 1)
                        for x, y in zip(a.operands, b.operands)
                    )
                score += child // max(1, len(a.operands))
            return score
        return 1
    if isinstance(a, Constant) and isinstance(b, Constant):
        return 1
    return 0
