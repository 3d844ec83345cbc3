"""Core RoLAG tests: rolling works, preserves semantics, shrinks code."""

import pytest

from tests.helpers import (
    assert_transform_preserves,
    execute,
    floats_to_bytes,
    ints_to_bytes,
)

from repro.analysis import CodeSizeCostModel
from repro.ir import parse_module, print_module, verify_module
from repro.rolag import (
    RolagConfig,
    RolagStats,
    roll_loops_in_function,
    roll_loops_in_module,
)

pytestmark = pytest.mark.usefixtures("stamp_checker")


def roll(module, name="f", config=None, stats=None):
    return roll_loops_in_function(
        module.get_function(name), config=config, stats=stats
    )


STORES_SEQUENTIAL = """
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


class TestBasicRolling:
    def test_store_run_rolls_and_preserves(self):
        def transform(m):
            return roll(m)

        rolled, module = assert_transform_preserves(
            STORES_SEQUENTIAL,
            transform,
            "f",
            buffer_specs=[ints_to_bytes([0] * 6)],
        )
        assert rolled == 1
        fn = module.get_function("f")
        assert len(fn.blocks) == 3  # preheader, loop, exit

    def test_code_size_shrinks(self):
        m = parse_module(STORES_SEQUENTIAL)
        cm = CodeSizeCostModel()
        before = cm.function_cost(m.get_function("f"))
        assert roll(m) == 1
        after = cm.function_cost(m.get_function("f"))
        assert after < before

    def test_monotonic_value_sequence(self):
        # Stored values 10, 20, 30, 40 -> sequence node.
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
  ret void
}
"""
        stats = RolagStats()

        def transform(m):
            return roll(m, stats=stats)

        rolled, module = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([0] * 6)]
        )
        assert rolled == 1
        assert stats.node_counts["sequence"] >= 1

    def test_decreasing_sequence(self):
        src = """
define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 50, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 40, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 30, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 20, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 10, i32* %p4
  %p5 = getelementptr i32, i32* %p, i64 5
  store i32 0, i32* %p5
  ret void
}
"""
        def transform(m):
            return roll(m)

        rolled, _ = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([0] * 6)]
        )
        assert rolled == 1

    def test_loads_computation_stores(self):
        # b[i] = a[i] * 3 + 1, fully unrolled.
        lines = ["define void @f(i32* %a, i32* %b) {", "entry:"]
        for i in range(6):
            lines += [
                f"  %pa{i} = getelementptr i32, i32* %a, i64 {i}",
                f"  %v{i} = load i32, i32* %pa{i}",
                f"  %m{i} = mul i32 %v{i}, 3",
                f"  %s{i} = add i32 %m{i}, 1",
                f"  %pb{i} = getelementptr i32, i32* %b, i64 {i}",
                f"  store i32 %s{i}, i32* %pb{i}",
            ]
        lines += ["  ret void", "}"]
        src = "\n".join(lines)

        def transform(m):
            return roll(m)

        rolled, module = assert_transform_preserves(
            src,
            transform,
            "f",
            buffer_specs=[
                ints_to_bytes([5, -3, 11, 0, 2, 8]),
                ints_to_bytes([0] * 6),
            ],
        )
        assert rolled == 1

    def test_two_lanes_only(self):
        # Two stores: legal but usually unprofitable.
        src = """
define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 7, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 7, i32* %p1
  ret void
}
"""
        m = parse_module(src)
        stats = RolagStats()
        rolled = roll(m, stats=stats)
        verify_module(m)
        # Either rejected as unprofitable or rolled -- never corrupted.
        assert rolled in (0, 1)
        assert stats.unprofitable + stats.rolled >= 1

    def test_min_lanes_config(self):
        m = parse_module(STORES_SEQUENTIAL)
        config = RolagConfig(min_lanes=8)
        assert roll(m, config=config) == 0


class TestMismatchNodes:
    def test_constant_mismatch_array(self):
        # Stored values with no arithmetic pattern -> constant array.
        values = [13, -7, 99, 4, 4, 250, 1, 0]
        lines = ["define void @f(i32* %p) {", "entry:"]
        for i, v in enumerate(values):
            lines += [
                f"  %p{i} = getelementptr i32, i32* %p, i64 {i}",
                f"  store i32 {v}, i32* %p{i}",
            ]
        lines += ["  ret void", "}"]
        src = "\n".join(lines)

        stats = RolagStats()

        def transform(m):
            return roll(m, stats=stats)

        rolled, module = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([0] * 8)]
        )
        if rolled:
            assert stats.node_counts["mismatch"] >= 1
            assert any(g.name.startswith("__rolag.vals") for g in module.globals)

    def test_runtime_mismatch_values(self):
        # Per-lane values are unrelated arguments: stack array path.
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
        m = parse_module(src)
        before = execute(
            m, "f", [1, 2, 3, 4, 5, 6], buffer_specs=[ints_to_bytes([0] * 6)]
        )
        rolled = roll(m)
        verify_module(m)
        after = execute(
            m, "f", [1, 2, 3, 4, 5, 6], buffer_specs=[ints_to_bytes([0] * 6)]
        )
        assert before.same_behaviour(after), before.explain_difference(after)
        # Mismatch handling is expensive; may or may not be profitable,
        # but must never be wrong.


class TestCallRolling:
    def test_identical_calls(self):
        src = """
declare void @hit(i32)

define void @f() {
entry:
  call void @hit(i32 0)
  call void @hit(i32 1)
  call void @hit(i32 2)
  call void @hit(i32 3)
  call void @hit(i32 4)
  ret void
}
"""
        def transform(m):
            return roll(m)

        rolled, module = assert_transform_preserves(src, transform, "f")
        assert rolled == 1

    def test_call_results_used_by_reduction_like_chain(self):
        src = """
declare i32 @get(i32) readnone

define i32 @f() {
entry:
  %a = call i32 @get(i32 0)
  %b = call i32 @get(i32 1)
  %c = call i32 @get(i32 2)
  %d = call i32 @get(i32 3)
  %s1 = add i32 %a, %b
  %s2 = add i32 %s1, %c
  %s3 = add i32 %s2, %d
  ret i32 %s3
}
"""
        def transform(m):
            return roll_loops_in_module(m)

        externs = {"get": lambda machine, args: args[0] * 11 + 1}
        rolled, module = assert_transform_preserves(
            src, transform, "f", externs=externs
        )
        assert rolled >= 1

    def test_calls_different_callees_not_merged(self):
        src = """
declare void @one(i32)

declare void @two(i32)

define void @f() {
entry:
  call void @one(i32 0)
  call void @two(i32 1)
  call void @one(i32 2)
  call void @two(i32 3)
  ret void
}
"""
        m = parse_module(src)
        stats = RolagStats()
        rolled = roll(m, stats=stats)
        verify_module(m)
        # Each callee group has only 2 lanes; the joint node may roll
        # them together -- but one() must never be replaced by two().
        before = execute(parse_module(src), "f")
        after = execute(m, "f")
        assert before.same_behaviour(after)


class TestExternalUses:
    def test_last_lane_external_use(self):
        # Chained external use of only the final value: direct reuse.
        src = """
declare i32 @step(i32) readnone

define i32 @f(i32 %seed) {
entry:
  %a = call i32 @step(i32 %seed)
  %b = call i32 @step(i32 %a)
  %c = call i32 @step(i32 %b)
  %d = call i32 @step(i32 %c)
  %e = call i32 @step(i32 %d)
  ret i32 %e
}
"""
        stats = RolagStats()

        def transform(m):
            return roll(m, stats=stats)

        externs = {"step": lambda machine, args: (args[0] * 3 + 1) % 1000}
        rolled, module = assert_transform_preserves(
            src, transform, "f", [5], externs=externs
        )
        assert rolled == 1
        assert stats.node_counts["recurrence"] >= 1
        # Direct reuse means no extraction arrays were needed.
        fn = module.get_function("f")
        from repro.ir import Alloca

        assert not any(isinstance(i, Alloca) for i in fn.instructions())

    def test_middle_lane_external_use_extracted(self):
        src = """
declare i32 @get(i32) readnone

define i32 @f(i32* %out) {
entry:
  %a = call i32 @get(i32 0)
  %b = call i32 @get(i32 1)
  %c = call i32 @get(i32 2)
  %d = call i32 @get(i32 3)
  %e = call i32 @get(i32 4)
  %keep = add i32 %b, %d
  ret i32 %keep
}
"""
        m = parse_module(src)
        externs = {"get": lambda machine, args: args[0] * 7 + 3}
        before = execute(m, "f", buffer_specs=[ints_to_bytes([0])],
                         externs=externs)
        rolled = roll(m)
        verify_module(m)
        after = execute(m, "f", buffer_specs=[ints_to_bytes([0])],
                        externs=externs)
        assert before.same_behaviour(after), before.explain_difference(after)


class TestProfitability:
    def test_unprofitable_not_rolled(self):
        # Two cheap stores; rolling adds loop control that outweighs.
        src = """
define void @f(i32* %p, i32 %x, i32 %y) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 %x, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 %y, i32* %p1
  ret void
}
"""
        m = parse_module(src)
        stats = RolagStats()
        rolled = roll(m, stats=stats)
        assert rolled == 0
        assert stats.unprofitable >= 1

    def test_cost_model_gate(self):
        # With a absurdly expensive cost table for stores the same code
        # becomes profitable to roll.
        m = parse_module(STORES_SEQUENTIAL)
        cm = CodeSizeCostModel()
        cm.table["store"] = 50
        rolled = roll_loops_in_function(m.get_function("f"), cost_model=cm)
        assert rolled == 1

    def test_estimated_savings_recorded(self):
        m = parse_module(STORES_SEQUENTIAL)
        stats = RolagStats()
        roll(m, stats=stats)
        assert stats.savings
        name, saving = stats.savings[0]
        assert name == "f"
        assert saving > 0


class TestMultipleRegionsAndModule:
    def test_two_rollable_regions_in_one_function(self):
        src = """
define void @f(i32* %p, i32* %q) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 1, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 1, i32* %p4
  %q0 = getelementptr i32, i32* %q, i64 0
  store i32 2, i32* %q0
  %q1 = getelementptr i32, i32* %q, i64 1
  store i32 2, i32* %q1
  %q2 = getelementptr i32, i32* %q, i64 2
  store i32 2, i32* %q2
  %q3 = getelementptr i32, i32* %q, i64 3
  store i32 2, i32* %q3
  %q4 = getelementptr i32, i32* %q, i64 4
  store i32 2, i32* %q4
  ret void
}
"""
        def transform(m):
            return roll(m)

        rolled, module = assert_transform_preserves(
            src,
            transform,
            "f",
            buffer_specs=[ints_to_bytes([0] * 5), ints_to_bytes([0] * 5)],
        )
        assert rolled == 2

    def test_module_driver(self):
        src = STORES_SEQUENTIAL + """
define void @g(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 9, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 9, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 9, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 9, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 9, i32* %p4
  ret void
}
"""
        m = parse_module(src)
        stats = RolagStats()
        total = roll_loops_in_module(m, stats=stats)
        verify_module(m)
        assert total == 2
        assert stats.rolled == 2

    def test_idempotent_on_rolled_output(self):
        m = parse_module(STORES_SEQUENTIAL)
        assert roll(m) == 1
        # Running again on the transformed function must not reroll the
        # generated loop (or diverge).
        assert roll(m) == 0
        verify_module(m)
