"""Counted-loop unrolling.

Unrolls single-block counted loops by a constant factor, producing the
partially-unrolled shape of the paper's Figure 1a: the body is
replicated with explicit ``iv + k*step`` induction updates and the
latch increment is scaled.  This is the tool used to prepare the TSVC
kernels ("we have forced all its inner loops to unroll by a factor
of 8", Section V-C).
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.loopinfo import CountedLoop, find_loops, match_counted_loop
from ..ir.instructions import BinaryOp, Instruction, Phi
from ..ir.module import Function
from ..ir.values import ConstantInt, Value


def unroll_counted_loop(counted: CountedLoop, factor: int) -> bool:
    """Unroll one counted loop by ``factor``.  Returns success.

    Requires a static trip count divisible by the factor, so the
    unrolled loop needs no epilogue.
    """
    if factor < 2:
        return False
    trip = counted.trip_count()
    if trip is None or trip <= 0 or trip % factor != 0:
        return False

    block = counted.block
    iv = counted.iv
    iv_next = counted.iv_next
    cmp = counted.cmp
    term = block.terminator
    fn = block.parent
    assert fn is not None

    phis = block.phis()
    control_ids = {id(iv_next), id(cmp), id(term)}
    body: List[Instruction] = [
        inst
        for inst in block.instructions
        if not isinstance(inst, Phi) and id(inst) not in control_ids
    ]

    # The body must not consume the latch update or the exit compare.
    for inst in body:
        for op in inst.operands:
            if op is iv_next or op is cmp:
                return False

    # Values carried between iterations: phi -> its latch (next) value.
    carried: Dict[int, Value] = {}
    for phi in phis:
        latch_value = phi.incoming_for(block)
        if latch_value is None:
            return False
        carried[id(phi)] = latch_value

    # The latch value of every carried phi must be a non-phi body
    # instruction (otherwise we cannot chain copies).  In particular a
    # phi whose latch is *another phi* (wraparound shifts like
    # ``y = x; x = b[i]``) has no per-copy equivalent: copy k needs the
    # value x held k-1 iterations ago, which no single remap provides.
    for phi in phis:
        if phi is iv:
            continue
        latch_value = carried[id(phi)]
        if (
            isinstance(latch_value, Instruction)
            and not isinstance(latch_value, Phi)
            and latch_value.parent is block
        ):
            continue
        return False

    new_instructions: List[Instruction] = list(phis) + list(body)
    # prev_map maps original body values to "the value at the end of the
    # previous copy"; for copy 1 that is the originals themselves.
    prev_map: Dict[int, Value] = {id(inst): inst for inst in body}

    int_ty = iv.type

    for k in range(1, factor):
        clone_map: Dict[int, Value] = {}
        # Fresh induction value for this copy: iv + k*step.
        iv_k = BinaryOp("add", iv, ConstantInt(int_ty, k * counted.step))
        iv_k.name = fn.next_name(f"iv{k}")
        new_instructions.append(iv_k)
        clone_map[id(iv)] = iv_k

        def remap(value: Value) -> Value:
            if id(value) in clone_map:
                return clone_map[id(value)]
            if isinstance(value, Phi) and id(value) in carried and value is not iv:
                # Start-of-iteration value = previous copy's latch value.
                latch = carried[id(value)]
                return prev_map.get(id(latch), latch)
            return value

        for inst in body:
            clone = inst.clone()
            clone.name = fn.next_name(inst.name or "u")
            for index, op in enumerate(list(clone.operands)):
                clone.set_operand(index, remap(op))
            clone_map[id(inst)] = clone
            new_instructions.append(clone)

        prev_map = {id(inst): clone_map[id(inst)] for inst in body}

    # Rewire loop-carried phis to the final copy's values.
    for phi in phis:
        if phi is iv:
            continue
        latch_value = carried[id(phi)]
        final = prev_map.get(id(latch_value), latch_value)
        for index, (value, pred) in enumerate(phi.incoming):
            if pred is block:
                phi.set_incoming_value(index, final)

    # Scale the latch increment.
    lhs, rhs = iv_next.operands
    scaled = counted.step * factor
    if iv_next.opcode == "sub":
        scaled = -scaled
    if isinstance(rhs, ConstantInt):
        iv_next.set_operand(1, ConstantInt(int_ty, abs(scaled) if iv_next.opcode == "sub" else scaled))
    else:
        iv_next.set_operand(0, ConstantInt(int_ty, scaled))

    new_instructions += [iv_next, cmp, term]
    block.set_instructions(new_instructions)

    # External uses of body values now see the final copy (done after
    # parents are set so in-loop clones are not mistaken for external).
    for inst in body:
        final = prev_map[id(inst)]
        if final is inst:
            continue
        for use in list(inst.uses):
            user = use.user
            if isinstance(user, Instruction) and user.parent is not block:
                user.set_operand(use.index, final)
    return True


def unroll_loops(fn: Function, factor: int) -> int:
    """Unroll every eligible counted loop in ``fn`` by ``factor``."""
    if fn.is_declaration:
        return 0
    unrolled = 0
    for loop in find_loops(fn):
        counted = match_counted_loop(loop)
        if counted is None:
            continue
        if unroll_counted_loop(counted, factor):
            unrolled += 1
    return unrolled
