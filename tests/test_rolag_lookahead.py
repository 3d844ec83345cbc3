"""Tests for look-ahead commutative operand reordering (paper VI-A)."""

import pytest

from tests.helpers import assert_transform_preserves, ints_to_bytes

from repro.ir import parse_module
from repro.rolag import RolagConfig, RolagStats, roll_loops_in_function
from repro.rolag.alignment import _similarity

pytestmark = pytest.mark.usefixtures("stamp_checker")


class TestSimilarityScoring:
    def test_identity_scores_highest(self):
        m = parse_module(
            """
define i32 @f(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = mul i32 %x, %y
  ret i32 %a
}
"""
        )
        a, b, _ = m.get_function("f").entry.instructions
        x = m.get_function("f").arguments[0]
        assert _similarity(x, x) > _similarity(a, b)

    def test_lookahead_distinguishes_same_opcode(self):
        # Two muls: one shares operand structure with the reference
        # (load * invariant), the other multiplies unrelated values.
        m = parse_module(
            """
define void @f(i32* %p, i32 %k, i32 %u, i32 %v) {
entry:
  %l0 = load i32, i32* %p
  %ref = mul i32 %l0, %k
  %g1 = getelementptr i32, i32* %p, i64 1
  %l1 = load i32, i32* %g1
  %good = mul i32 %l1, %k
  %bad = mul i32 %u, %v
  store i32 %ref, i32* %p
  store i32 %good, i32* %g1
  store i32 %bad, i32* %g1
  ret void
}
"""
        )
        insts = {i.name: i for i in m.get_function("f").entry.instructions}
        assert _similarity(insts["ref"], insts["good"]) > _similarity(
            insts["ref"], insts["bad"]
        )

    def test_depth_zero_flat(self):
        m = parse_module(
            """
define void @f(i32* %p, i32 %k, i32 %u, i32 %v) {
entry:
  %l0 = load i32, i32* %p
  %a = mul i32 %l0, %k
  %b = mul i32 %u, %v
  store i32 %a, i32* %p
  store i32 %b, i32* %p
  ret void
}
"""
        )
        insts = {i.name: i for i in m.get_function("f").entry.instructions}
        assert _similarity(insts["a"], insts["b"], depth=0) == _similarity(
            insts["b"], insts["a"], depth=0
        )


class TestReorderingEndToEnd:
    def _swapped_mul_source(self, lanes):
        """store (k * x[i]) with the mul operands swapped on odd lanes;
        both operands are same-opcode loads, so only look-ahead can tell
        which order aligns (x-loads stride together, k is invariant-ish
        via a load from q)."""
        lines = ["define void @f(i32* %x, i32* %q, i32* %out) {", "entry:"]
        lines.append("  %k = load i32, i32* %q")
        for i in range(lanes):
            lines.append(f"  %gx{i} = getelementptr i32, i32* %x, i64 {i}")
            lines.append(f"  %lx{i} = load i32, i32* %gx{i}")
            if i % 2 == 0:
                lines.append(f"  %m{i} = mul i32 %lx{i}, %k")
            else:
                lines.append(f"  %m{i} = mul i32 %k, %lx{i}")
            lines.append(f"  %go{i} = getelementptr i32, i32* %out, i64 {i}")
            lines.append(f"  store i32 %m{i}, i32* %go{i}")
        lines += ["  ret void", "}"]
        return "\n".join(lines)

    def test_swapped_lanes_align_without_mismatch(self):
        src = self._swapped_mul_source(6)
        stats = RolagStats()

        def transform(m):
            return roll_loops_in_function(m.get_function("f"), stats=stats)

        rolled, _ = assert_transform_preserves(
            src,
            transform,
            "f",
            buffer_specs=[
                ints_to_bytes([2, 3, 4, 5, 6, 7]),
                ints_to_bytes([10]),
                ints_to_bytes([0] * 6),
            ],
        )
        assert rolled == 1
        assert stats.node_counts.get("mismatch", 0) == 0

    def test_reordering_disabled_degrades(self):
        src = self._swapped_mul_source(6)
        m = parse_module(src)
        config = RolagConfig(enable_commutative_reordering=False)
        stats = RolagStats()
        roll_loops_in_function(m.get_function("f"), config=config, stats=stats)
        # Without reordering a single clean 6-lane roll is impossible:
        # the pipeline either fails, pays for mismatch arrays, or falls
        # back to splitting the group into even/odd joint subsequences
        # (each internally consistent) -- strictly more structure than
        # the reordering-enabled single match.
        degraded = (
            stats.rolled == 0
            or stats.node_counts.get("mismatch", 0) > 0
            or stats.node_counts.get("joint", 0) > 0
        )
        assert degraded
        # And it must still be correct either way.
        from repro.ir import verify_module

        verify_module(m)
