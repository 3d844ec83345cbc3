"""Tests for the unroller and the LLVM-style reroll baseline.

The key property (paper Fig. 1): unroll(k) followed by reroll recovers
the original loop structure, and both steps preserve semantics.
"""

import pytest

from tests.helpers import assert_transform_preserves, execute, ints_to_bytes

from repro.analysis import find_loops, match_counted_loop
from repro.ir import parse_module, verify_module
from repro.transforms import (
    RerollStats,
    reroll_loops,
    unroll_loops,
)

pytestmark = pytest.mark.usefixtures("stamp_checker")


INIT_LOOP = """
@A = global [24 x i32] zeroinitializer

define void @f(i32 %factor) {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %in, %loop ]
  %m = mul i32 %factor, %i
  %p = getelementptr [24 x i32], [24 x i32]* @A, i64 0, i32 %i
  store i32 %m, i32* %p
  %in = add i32 %i, 1
  %c = icmp slt i32 %in, 24
  br i1 %c, label %loop, label %exit

exit:
  ret void
}
"""

REDUCTION_LOOP = """
@B = global [16 x i32] [i32 3, i32 1, i32 4, i32 1, i32 5, i32 9, i32 2, i32 6, i32 5, i32 3, i32 5, i32 8, i32 9, i32 7, i32 9, i32 3]

define i32 @f() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %in, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %an, %loop ]
  %p = getelementptr [16 x i32], [16 x i32]* @B, i64 0, i32 %i
  %v = load i32, i32* %p
  %an = add i32 %acc, %v
  %in = add i32 %i, 1
  %c = icmp slt i32 %in, 16
  br i1 %c, label %loop, label %exit

exit:
  ret i32 %an
}
"""


class TestUnroll:
    @pytest.mark.parametrize("factor", [2, 3, 4, 8])
    def test_unroll_preserves_semantics(self, factor):
        def transform(m):
            return unroll_loops(m.get_function("f"), factor)

        count, module = assert_transform_preserves(
            INIT_LOOP, transform, "f", [7]
        )
        assert count == 1

    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_unroll_reduction(self, factor):
        def transform(m):
            return unroll_loops(m.get_function("f"), factor)

        count, module = assert_transform_preserves(REDUCTION_LOOP, transform, "f")
        assert count == 1

    def test_unrolled_body_size(self):
        m = parse_module(INIT_LOOP)
        unroll_loops(m.get_function("f"), 4)
        loop = [b for b in m.get_function("f").blocks if b.name == "loop"][0]
        stores = [i for i in loop.instructions if i.opcode == "store"]
        assert len(stores) == 4

    def test_non_dividing_factor_refused(self):
        m = parse_module(INIT_LOOP)  # trip count 24
        assert unroll_loops(m.get_function("f"), 5) == 0
        verify_module(m)

    def test_unknown_trip_count_refused(self):
        src = INIT_LOOP.replace("icmp slt i32 %in, 24", "icmp slt i32 %in, %factor")
        m = parse_module(src)
        assert unroll_loops(m.get_function("f"), 2) == 0

    def test_latch_constant_scaled(self):
        m = parse_module(INIT_LOOP)
        unroll_loops(m.get_function("f"), 3)
        counted = match_counted_loop(find_loops(m.get_function("f"))[0])
        assert counted is not None
        assert counted.step == 3


class TestReroll:
    @pytest.mark.parametrize("factor", [2, 3, 4, 8])
    def test_roundtrip_init_loop(self, factor):
        m = parse_module(INIT_LOOP)
        fn = m.get_function("f")
        assert unroll_loops(fn, factor) == 1
        verify_module(m)

        def transform(module):
            return reroll_loops(module.get_function("f"))

        text_before = None
        count, module = assert_transform_preserves(
            __import__("repro.ir", fromlist=["print_module"]).print_module(m),
            transform,
            "f",
            [7],
        )
        assert count == 1
        counted = match_counted_loop(find_loops(module.get_function("f"))[0])
        assert counted is not None
        assert counted.step == 1

    @pytest.mark.parametrize("factor", [2, 4])
    def test_roundtrip_reduction(self, factor):
        from repro.ir import print_module

        m = parse_module(REDUCTION_LOOP)
        fn = m.get_function("f")
        assert unroll_loops(fn, factor) == 1

        def transform(module):
            return reroll_loops(module.get_function("f"))

        count, module = assert_transform_preserves(
            print_module(m), transform, "f"
        )
        assert count == 1

    def test_rolled_loop_not_touched(self):
        m = parse_module(INIT_LOOP)
        stats = RerollStats()
        assert reroll_loops(m.get_function("f"), stats) == 0
        assert stats.attempted == 1
        verify_module(m)

    def test_straight_line_code_not_handled(self):
        # The baseline's core limitation: no loop, no reroll.
        src = """
define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %p2
  ret void
}
"""
        m = parse_module(src)
        assert reroll_loops(m.get_function("f")) == 0

    def test_imperfect_unroll_rejected(self):
        # One of the "iterations" differs: exact matching must refuse.
        src = """
@A = global [8 x i32] zeroinitializer

define void @f() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %in, %loop ]
  %p0 = getelementptr [8 x i32], [8 x i32]* @A, i64 0, i32 %i
  store i32 1, i32* %p0
  %i1 = add i32 %i, 1
  %p1 = getelementptr [8 x i32], [8 x i32]* @A, i64 0, i32 %i1
  store i32 2, i32* %p1
  %in = add i32 %i, 2
  %c = icmp slt i32 %in, 8
  br i1 %c, label %loop, label %exit

exit:
  ret void
}
"""
        m = parse_module(src)
        assert reroll_loops(m.get_function("f")) == 0
        verify_module(m)

    def test_partial_coverage_rejected(self):
        # An extra instruction outside any iteration blocks rerolling.
        src = """
@A = global [8 x i32] zeroinitializer
@S = global i32 0

define void @f() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %in, %loop ]
  %p0 = getelementptr [8 x i32], [8 x i32]* @A, i64 0, i32 %i
  store i32 1, i32* %p0
  %i1 = add i32 %i, 1
  %p1 = getelementptr [8 x i32], [8 x i32]* @A, i64 0, i32 %i1
  store i32 1, i32* %p1
  store i32 7, i32* @S
  %in = add i32 %i, 2
  %c = icmp slt i32 %in, 8
  br i1 %c, label %loop, label %exit

exit:
  ret void
}
"""
        m = parse_module(src)
        assert reroll_loops(m.get_function("f")) == 0

    def test_reroll_shrinks_code(self):
        from repro.analysis import CodeSizeCostModel

        m = parse_module(INIT_LOOP)
        fn = m.get_function("f")
        unroll_loops(fn, 8)
        cm = CodeSizeCostModel()
        before = cm.function_cost(fn)
        assert reroll_loops(fn) == 1
        after = cm.function_cost(fn)
        assert after < before
