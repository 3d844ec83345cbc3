"""Tests for the special alignment-node kinds (paper Section IV-C)."""

import pytest

from tests.helpers import (
    assert_transform_preserves,
    execute,
    floats_to_bytes,
    ints_to_bytes,
)

from repro.ir import I32, Machine, parse_module, verify_module
from repro.rolag import (
    RolagConfig,
    RolagStats,
    roll_loops_in_function,
)

pytestmark = pytest.mark.usefixtures("stamp_checker")


def roll(module, name="f", config=None, stats=None):
    return roll_loops_in_function(
        module.get_function(name), config=config, stats=stats
    )


FIG3_AEGIS = """
declare void @vst1q_u8(i8*, i8*)

define void @aegis(i8* %st, i8* %state) {
entry:
  call void @vst1q_u8(i8* %state, i8* %st)
  %p1 = getelementptr i8, i8* %state, i64 16
  %v1 = getelementptr i8, i8* %st, i64 16
  call void @vst1q_u8(i8* %p1, i8* %v1)
  %p2 = getelementptr i8, i8* %state, i64 32
  %v2 = getelementptr i8, i8* %st, i64 32
  call void @vst1q_u8(i8* %p2, i8* %v2)
  %p3 = getelementptr i8, i8* %state, i64 48
  %v3 = getelementptr i8, i8* %st, i64 48
  call void @vst1q_u8(i8* %p3, i8* %v3)
  %p4 = getelementptr i8, i8* %state, i64 64
  %v4 = getelementptr i8, i8* %st, i64 64
  call void @vst1q_u8(i8* %p4, i8* %v4)
  ret void
}
"""

FIG4_HDMI = """
%struct.fmt = type { i32, i32, i32, i32, i32, i32 }

declare i32 @FLD_MOD(i32, i32, i32, i32) readnone

define i32 @hdmi(i32 %r0, %struct.fmt* %fmt) {
entry:
  %g5 = getelementptr %struct.fmt, %struct.fmt* %fmt, i64 0, i64 5
  %f5 = load i32, i32* %g5
  %r1 = call i32 @FLD_MOD(i32 %r0, i32 %f5, i32 5, i32 5)
  %g4 = getelementptr %struct.fmt, %struct.fmt* %fmt, i64 0, i64 4
  %f4 = load i32, i32* %g4
  %r2 = call i32 @FLD_MOD(i32 %r1, i32 %f4, i32 4, i32 4)
  %g3 = getelementptr %struct.fmt, %struct.fmt* %fmt, i64 0, i64 3
  %f3 = load i32, i32* %g3
  %r3 = call i32 @FLD_MOD(i32 %r2, i32 %f3, i32 3, i32 3)
  %g2 = getelementptr %struct.fmt, %struct.fmt* %fmt, i64 0, i64 2
  %f2 = load i32, i32* %g2
  %r4 = call i32 @FLD_MOD(i32 %r3, i32 %f2, i32 2, i32 2)
  %g1 = getelementptr %struct.fmt, %struct.fmt* %fmt, i64 0, i64 1
  %f1 = load i32, i32* %g1
  %r5 = call i32 @FLD_MOD(i32 %r4, i32 %f1, i32 1, i32 1)
  %g0 = getelementptr %struct.fmt, %struct.fmt* %fmt, i64 0, i64 0
  %f0 = load i32, i32* %g0
  %r6 = call i32 @FLD_MOD(i32 %r5, i32 %f0, i32 0, i32 0)
  ret i32 %r6
}
"""


def fld_mod(machine, args):
    r, v, e, s = args
    mask = ((1 << (e - s + 1)) - 1) << s
    return (r & ~mask) | ((v << s) & mask)


class TestNeutralPointerOps:
    """Paper Fig. 3 / Fig. 9: the aegis128 call sequence."""

    def test_rolls_with_ptr_seq_nodes(self):
        stats = RolagStats()

        def transform(m):
            return roll(m, "aegis", stats=stats)

        rolled, module = assert_transform_preserves(
            FIG3_AEGIS,
            transform,
            "aegis",
            buffer_specs=[b"\0" * 96, b"\0" * 96],
        )
        assert rolled == 1
        assert stats.node_counts["ptr_seq"] == 2  # both operand chains
        assert stats.node_counts["match"] == 1  # the call

    def test_disabled_gep_neutral_only_partial_roll(self):
        m = parse_module(FIG3_AEGIS)
        config = RolagConfig(enable_gep_neutral=False)
        stats = RolagStats()
        rolled = roll(m, "aegis", config=config, stats=stats)
        verify_module(m)
        # Without the pointer rule the bare-%state lane cannot align, so
        # at best a contiguous subgroup (the GEP-addressed calls) rolls.
        assert stats.node_counts.get("ptr_seq", 0) == 0
        from repro.ir import Call

        entry = m.get_function("aegis").entry
        straight_line_calls = [
            i for i in entry.instructions if isinstance(i, Call)
        ]
        assert len(straight_line_calls) >= 2  # lane 0 (and 1) left behind

    def test_size_reduction_about_matches_paper(self):
        # Paper reports ~20% object-size reduction for this function.
        from repro.analysis import CodeSizeCostModel

        m = parse_module(FIG3_AEGIS)
        cm = CodeSizeCostModel()
        before = cm.function_cost(m.get_function("aegis"))
        roll(m, "aegis")
        after = cm.function_cost(m.get_function("aegis"))
        reduction = (before - after) / before
        assert reduction > 0.15


class TestChainedDependences:
    """Paper Fig. 4 / Fig. 10: the hdmi FLD_MOD chain."""

    def test_rolls_with_recurrence(self):
        stats = RolagStats()

        def transform(m):
            return roll(m, "hdmi", stats=stats)

        fields = ints_to_bytes([4, 9, 16, 25, 36, 49])
        rolled, module = assert_transform_preserves(
            FIG4_HDMI,
            transform,
            "hdmi",
            [12345],
            buffer_specs=[fields],
            externs={"FLD_MOD": fld_mod},
        )
        assert rolled == 1
        assert stats.node_counts["recurrence"] == 1
        assert stats.node_counts["sequence"] >= 1  # the 5..0 bit indices
        assert stats.node_counts["ptr_seq"] == 1  # struct-as-array access

    def test_struct_accessed_in_reverse(self):
        # The generated pointer walks the struct fields downwards.
        m = parse_module(FIG4_HDMI)
        roll(m, "hdmi")
        text = __import__("repro.ir", fromlist=["print_module"]).print_module(m)
        assert "phi i32" in text  # the recurrence phi
        verify_module(m)

    def test_disabled_recurrence_blocks_rolling(self):
        m = parse_module(FIG4_HDMI)
        config = RolagConfig(enable_recurrence=False)
        rolled = roll(m, "hdmi", config=config)
        assert rolled == 0


class TestReductionTrees:
    DOT = """
define i32 @f(i32* %a, i32* %b) {
entry:
  %a0 = load i32, i32* %a
  %b0 = load i32, i32* %b
  %m0 = mul i32 %a0, %b0
  %pa1 = getelementptr i32, i32* %a, i64 1
  %a1 = load i32, i32* %pa1
  %pb1 = getelementptr i32, i32* %b, i64 1
  %b1 = load i32, i32* %pb1
  %m1 = mul i32 %a1, %b1
  %pa2 = getelementptr i32, i32* %a, i64 2
  %a2 = load i32, i32* %pa2
  %pb2 = getelementptr i32, i32* %b, i64 2
  %b2 = load i32, i32* %pb2
  %m2 = mul i32 %a2, %b2
  %pa3 = getelementptr i32, i32* %a, i64 3
  %a3 = load i32, i32* %pa3
  %pb3 = getelementptr i32, i32* %b, i64 3
  %b3 = load i32, i32* %pb3
  %m3 = mul i32 %a3, %b3
  %s1 = add i32 %m0, %m1
  %s2 = add i32 %s1, %m2
  %s3 = add i32 %s2, %m3
  ret i32 %s3
}
"""

    def test_left_chain_reduction(self):
        stats = RolagStats()

        def transform(m):
            return roll(m, stats=stats)

        rolled, _ = assert_transform_preserves(
            self.DOT,
            transform,
            "f",
            buffer_specs=[
                ints_to_bytes([1, 2, 3, 4]),
                ints_to_bytes([10, 20, 30, 40]),
            ],
        )
        assert rolled == 1
        assert stats.node_counts["reduction"] == 1

    def test_balanced_tree_reduction(self):
        src = """
define i32 @f(i32* %a) {
entry:
  %p0 = getelementptr i32, i32* %a, i64 0
  %v0 = load i32, i32* %p0
  %p1 = getelementptr i32, i32* %a, i64 1
  %v1 = load i32, i32* %p1
  %p2 = getelementptr i32, i32* %a, i64 2
  %v2 = load i32, i32* %p2
  %p3 = getelementptr i32, i32* %a, i64 3
  %v3 = load i32, i32* %p3
  %s01 = add i32 %v0, %v1
  %s23 = add i32 %v2, %v3
  %s = add i32 %s01, %s23
  ret i32 %s
}
"""
        def transform(m):
            return roll(m)

        rolled, _ = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([5, 6, 7, 8])]
        )
        assert rolled == 1

    def test_float_reduction_needs_fast_math(self):
        src = """
define float @f(float* %a) {
entry:
  %p0 = getelementptr float, float* %a, i64 0
  %v0 = load float, float* %p0
  %p1 = getelementptr float, float* %a, i64 1
  %v1 = load float, float* %p1
  %p2 = getelementptr float, float* %a, i64 2
  %v2 = load float, float* %p2
  %p3 = getelementptr float, float* %a, i64 3
  %v3 = load float, float* %p3
  %s1 = fadd float %v0, %v1
  %s2 = fadd float %s1, %v2
  %s3 = fadd float %s2, %v3
  ret float %s3
}
"""
        m = parse_module(src)
        assert roll(m) == 0  # strict FP by default

        m2 = parse_module(src)
        config = RolagConfig(fast_math=True)
        rolled = roll(m2, config=config)
        verify_module(m2)
        assert rolled == 1

    def test_xor_reduction(self):
        src = """
define i32 @f(i32 %a, i32 %b, i32 %c, i32 %d) {
entry:
  %x1 = xor i32 %a, %b
  %x2 = xor i32 %x1, %c
  %x3 = xor i32 %x2, %d
  ret i32 %x3
}
"""
        m = parse_module(src)
        stats = RolagStats()
        rolled = roll(m, stats=stats)
        verify_module(m)
        # Leaves are 4 unrelated arguments: a mismatch array would be
        # required, typically unprofitable -- but never incorrect.
        before = execute(parse_module(src), "f", [1, 2, 3, 4])
        after = execute(m, "f", [1, 2, 3, 4])
        assert before.same_behaviour(after)

    def test_disabled_reduction(self):
        m = parse_module(self.DOT)
        config = RolagConfig(enable_reduction=False)
        assert roll(m, config=config) == 0


class TestBinOpNeutral:
    @staticmethod
    def _padded_add_source(lanes, skip_lane):
        lines = ["define void @f(i32* %a, i32* %b) {", "entry:"]
        for i in range(lanes):
            lines += [
                f"  %pa{i} = getelementptr i32, i32* %a, i64 {i}",
                f"  %v{i} = load i32, i32* %pa{i}",
            ]
            value = f"%v{i}"
            if i != skip_lane:
                lines.append(f"  %s{i} = add i32 %v{i}, 5")
                value = f"%s{i}"
            lines += [
                f"  %pb{i} = getelementptr i32, i32* %b, i64 {i}",
                f"  store i32 {value}, i32* %pb{i}",
            ]
        lines += ["  ret void", "}"]
        return "\n".join(lines)

    def test_missing_add_padded_with_zero(self):
        # One lane stores the loaded value directly (x + 0 == x).
        src = self._padded_add_source(lanes=8, skip_lane=2)
        stats = RolagStats()

        def transform(m):
            return roll(m, stats=stats)

        values = [1, 2, 3, 4, -5, 100, 7, 8]
        rolled, _ = assert_transform_preserves(
            src,
            transform,
            "f",
            buffer_specs=[ints_to_bytes(values), ints_to_bytes([0] * 8)],
        )
        assert rolled == 1
        assert stats.node_counts["binop_neutral"] == 1

    def test_small_padded_group_judged_unprofitable(self):
        # With only 4 lanes the constant pad array outweighs the win;
        # the profitability analysis must reject the roll.
        src = self._padded_add_source(lanes=4, skip_lane=2)
        m = parse_module(src)
        stats = RolagStats()
        rolled = roll(m, stats=stats)
        assert rolled == 0
        assert stats.unprofitable >= 1

    def test_commutative_reordering(self):
        # Lane operands swapped: mul is commutative, alignment should
        # reorder instead of falling back to mismatch arrays.
        src = """
define void @f(i32 %k, i32* %a, i32* %b) {
entry:
  %pa0 = getelementptr i32, i32* %a, i64 0
  %v0 = load i32, i32* %pa0
  %m0 = mul i32 %v0, %k
  %pb0 = getelementptr i32, i32* %b, i64 0
  store i32 %m0, i32* %pb0
  %pa1 = getelementptr i32, i32* %a, i64 1
  %v1 = load i32, i32* %pa1
  %m1 = mul i32 %k, %v1
  %pb1 = getelementptr i32, i32* %b, i64 1
  store i32 %m1, i32* %pb1
  %pa2 = getelementptr i32, i32* %a, i64 2
  %v2 = load i32, i32* %pa2
  %m2 = mul i32 %v2, %k
  %pb2 = getelementptr i32, i32* %b, i64 2
  store i32 %m2, i32* %pb2
  %pa3 = getelementptr i32, i32* %a, i64 3
  %v3 = load i32, i32* %pa3
  %m3 = mul i32 %k, %v3
  %pb3 = getelementptr i32, i32* %b, i64 3
  store i32 %m3, i32* %pb3
  ret void
}
"""
        stats = RolagStats()

        def transform(m):
            return roll(m, stats=stats)

        rolled, _ = assert_transform_preserves(
            src,
            transform,
            "f",
            [3],
            buffer_specs=[ints_to_bytes([1, 2, 3, 4]), ints_to_bytes([0] * 4)],
        )
        assert rolled == 1
        # All four muls align into one match node; no mismatch needed.
        assert stats.node_counts.get("mismatch", 0) == 0


class TestJointGroups:
    def test_alternating_store_and_call(self):
        src = """
declare void @tick(i32)

define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 0, i32* %p0
  call void @tick(i32 0)
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  call void @tick(i32 1)
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 2, i32* %p2
  call void @tick(i32 2)
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 3, i32* %p3
  call void @tick(i32 3)
  ret void
}
"""
        stats = RolagStats()

        def transform(m):
            return roll(m, stats=stats)

        rolled, _ = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([9] * 4)]
        )
        assert rolled == 1
        assert stats.node_counts["joint"] == 1

    def test_alternation_is_preserved_in_trace(self):
        # The extern-call trace proves store/call interleaving survives
        # (store effects are visible through a readonly callee).
        src = """
declare void @tick(i32)

define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 10, i32* %p0
  call void @tick(i32 0)
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 11, i32* %p1
  call void @tick(i32 1)
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 12, i32* %p2
  call void @tick(i32 2)
  ret void
}
"""
        m = parse_module(src)
        seen = []

        def tick(machine, args):
            # Record how much of the buffer is initialised at call time.
            seen.append(args[0])
            return None

        before = execute(
            m, "f", buffer_specs=[ints_to_bytes([0] * 3)],
            externs={"tick": tick},
        )
        trace_before = list(seen)
        seen.clear()
        roll(m)
        verify_module(m)
        after = execute(
            m, "f", buffer_specs=[ints_to_bytes([0] * 3)],
            externs={"tick": tick},
        )
        assert before.same_behaviour(after)
        assert seen == trace_before

    def test_disabled_joint(self):
        src = """
declare void @tick(i32)

define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 0, i32* %p0
  call void @tick(i32 0)
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  call void @tick(i32 1)
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 2, i32* %p2
  call void @tick(i32 2)
  ret void
}
"""
        m = parse_module(src)
        config = RolagConfig(enable_joint=False)
        stats = RolagStats()
        rolled = roll(m, config=config, stats=stats)
        # Stores alone cannot move past the opaque calls: scheduling
        # must reject them, so nothing rolls.
        assert rolled == 0
        assert stats.schedule_rejected >= 1


class TestSequencesDisabled:
    def test_sequence_ablation(self):
        src = """
define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 10, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 20, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 30, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 40, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 50, i32* %p4
  %p5 = getelementptr i32, i32* %p, i64 5
  store i32 60, i32* %p5
  %p6 = getelementptr i32, i32* %p, i64 6
  store i32 70, i32* %p6
  %p7 = getelementptr i32, i32* %p, i64 7
  store i32 80, i32* %p7
  ret void
}
"""
        stats_on = RolagStats()
        m1 = parse_module(src)
        roll(m1, stats=stats_on)
        assert stats_on.node_counts.get("sequence", 0) >= 1

        # Disabled: values become a constant mismatch array, strictly
        # bigger; rolling may still happen but with mismatch nodes.
        m2 = parse_module(src)
        stats_off = RolagStats()
        config = RolagConfig(enable_sequences=False)
        roll(m2, config=config, stats=stats_off)
        assert stats_off.node_counts.get("sequence", 0) == 0
        verify_module(m2)
