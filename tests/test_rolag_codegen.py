"""Structural tests of the RoLAG code generator (paper Fig. 14)."""

import pytest

from tests.helpers import execute, ints_to_bytes

from repro.ir import (
    Alloca,
    Br,
    GlobalVariable,
    ICmp,
    Load,
    Phi,
    Store,
    parse_module,
    verify_module,
)
from repro.rolag import RolagStats, roll_loops_in_function

pytestmark = pytest.mark.usefixtures("stamp_checker")


ROLLABLE = """
define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 7, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 7, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 7, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 7, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 7, i32* %p4
  %p5 = getelementptr i32, i32* %p, i64 5
  store i32 7, i32* %p5
  ret void
}
"""


def rolled(src, name="f"):
    module = parse_module(src)
    count = roll_loops_in_function(module.get_function(name))
    verify_module(module)
    return module, count


class TestLoopShape:
    def test_fig14_block_layout(self):
        module, count = rolled(ROLLABLE)
        assert count == 1
        fn = module.get_function("f")
        preheader, loop, exit_block = fn.blocks
        # Preheader jumps into the loop.
        assert isinstance(preheader.terminator, Br)
        assert preheader.terminator.successors() == [loop]
        # Loop: iv phi, body, bump, compare, conditional branch.
        assert isinstance(loop.instructions[0], Phi)
        term = loop.terminator
        assert term.is_conditional
        assert set(map(id, term.successors())) == {id(loop), id(exit_block)}
        # Compare drives the branch.
        assert isinstance(term.condition, ICmp)
        assert term.condition.predicate == "ult"
        # Exit holds the original return.
        assert exit_block.terminator.opcode == "ret"

    def test_trip_count_equals_lanes(self):
        module, _ = rolled(ROLLABLE)
        fn = module.get_function("f")
        loop = fn.blocks[1]
        cond = loop.terminator.condition
        bound = cond.operands[1]
        assert bound.value == 6

    def test_iv_phi_starts_at_zero(self):
        module, _ = rolled(ROLLABLE)
        loop = module.get_function("f").blocks[1]
        iv = loop.instructions[0]
        start = iv.incoming_for(module.get_function("f").blocks[0])
        assert start.value == 0

    def test_loop_body_has_single_store(self):
        module, _ = rolled(ROLLABLE)
        loop = module.get_function("f").blocks[1]
        stores = [i for i in loop.instructions if isinstance(i, Store)]
        assert len(stores) == 1

    def test_original_instructions_deleted(self):
        module, _ = rolled(ROLLABLE)
        fn = module.get_function("f")
        total = sum(len(b.instructions) for b in fn.blocks)
        # 1 br + (phi, gep, store, add, icmp, br) + ret = 8
        assert total <= 9


class TestMismatchMaterialisation:
    CONST_VALUES = [13, -7, 99, 4, 5, 250, 1, 0, 42, -1]

    def _const_mismatch_source(self):
        lines = ["define void @f(i32* %p) {", "entry:"]
        for i, v in enumerate(self.CONST_VALUES):
            lines.append(f"  %p{i} = getelementptr i32, i32* %p, i64 {i}")
            lines.append(f"  store i32 {v}, i32* %p{i}")
        lines += ["  ret void", "}"]
        return "\n".join(lines)

    def test_constant_table_in_rodata(self):
        module, count = rolled(self._const_mismatch_source())
        assert count == 1
        tables = [g for g in module.globals if g.name.startswith("__rolag")]
        assert len(tables) == 1
        assert tables[0].is_constant_global
        values = [e.value for e in tables[0].initializer.elements]
        assert values == self.CONST_VALUES

    def test_table_loaded_by_iv(self):
        module, _ = rolled(self._const_mismatch_source())
        loop = module.get_function("f").blocks[1]
        loads = [i for i in loop.instructions if isinstance(i, Load)]
        assert len(loads) == 1

    def test_runtime_values_use_stack_array(self):
        src = """
define void @f(i32 %a, i32 %b, i32 %c, i32 %d, i32 %e, i32 %g, i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 %a, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 %b, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 %c, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 %d, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 %e, i32* %p4
  %p5 = getelementptr i32, i32* %p, i64 5
  store i32 %g, i32* %p5
  ret void
}
"""
        module = parse_module(src)
        from repro.analysis import CodeSizeCostModel

        # Force profitability so the stack-array path materialises.
        cm = CodeSizeCostModel()
        cm.table["store"] = 40
        count = roll_loops_in_function(
            module.get_function("f"), cost_model=cm
        )
        verify_module(module)
        if count:
            fn = module.get_function("f")
            allocas = [
                i for i in fn.instructions() if isinstance(i, Alloca)
            ]
            assert len(allocas) == 1  # the mismatch array
            # And it must still compute the right thing.
            before = execute(
                parse_module(src), "f", [9, 8, 7, 6, 5, 4],
                buffer_specs=[ints_to_bytes([0] * 6)],
            )
            after = execute(
                module, "f", [9, 8, 7, 6, 5, 4],
                buffer_specs=[ints_to_bytes([0] * 6)],
            )
            assert before.same_behaviour(after)


class TestExitBlockWiring:
    def test_successor_phis_rewired(self):
        # The rolled block branches to a join whose phi must now name
        # the exit block as predecessor.
        src = """
define i32 @f(i1 %c, i32* %p) {
entry:
  br i1 %c, label %work, label %join

work:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 7, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 7, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 7, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 7, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 7, i32* %p4
  %p5 = getelementptr i32, i32* %p, i64 5
  store i32 7, i32* %p5
  br label %join

join:
  %r = phi i32 [ 1, %work ], [ 0, %entry ]
  ret i32 %r
}
"""
        module = parse_module(src)
        count = roll_loops_in_function(module.get_function("f"))
        verify_module(module)  # phi/pred agreement is part of verification
        assert count == 1
        for args in ([1], [0]):
            before = execute(
                parse_module(src), "f", args,
                buffer_specs=[ints_to_bytes([0] * 6)],
            )
            after = execute(
                module, "f", args, buffer_specs=[ints_to_bytes([0] * 6)]
            )
            assert before.same_behaviour(after)

    def test_rolling_inside_branch_arm(self):
        # Both arms contain rollable regions; each gets its own loop.
        src = """
define void @f(i1 %c, i32* %p) {
entry:
  br i1 %c, label %a, label %b

a:
  %a0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %a0
  %a1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %a1
  %a2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %a2
  %a3 = getelementptr i32, i32* %p, i64 3
  store i32 1, i32* %a3
  %a4 = getelementptr i32, i32* %p, i64 4
  store i32 1, i32* %a4
  ret void

b:
  %b0 = getelementptr i32, i32* %p, i64 0
  store i32 2, i32* %b0
  %b1 = getelementptr i32, i32* %p, i64 1
  store i32 2, i32* %b1
  %b2 = getelementptr i32, i32* %p, i64 2
  store i32 2, i32* %b2
  %b3 = getelementptr i32, i32* %p, i64 3
  store i32 2, i32* %b3
  %b4 = getelementptr i32, i32* %p, i64 4
  store i32 2, i32* %b4
  ret void
}
"""
        module = parse_module(src)
        count = roll_loops_in_function(module.get_function("f"))
        verify_module(module)
        assert count == 2
        for args in ([1], [0]):
            before = execute(
                parse_module(src), "f", args,
                buffer_specs=[ints_to_bytes([0] * 5)],
            )
            after = execute(
                module, "f", args, buffer_specs=[ints_to_bytes([0] * 5)]
            )
            assert before.same_behaviour(after)
