"""Tests for loop-aware in-place rerolling (paper Sec. V-C improvement)."""

import pytest

from tests.helpers import execute, ints_to_bytes

from repro.bench import tsvc
from repro.bench.objsize import function_size
from repro.ir import Machine, parse_module, verify_module
from repro.rolag import RolagConfig, RolagStats, roll_loops_in_module
from repro.transforms import unroll_loops

pytestmark = pytest.mark.usefixtures("stamp_checker")

AWARE = RolagConfig(fast_math=True, loop_aware=True)


def run_kernel(module, name):
    machine = Machine(module)
    tsvc.init_machine(machine)
    result = machine.call(module.get_function(name), [])
    contents = {
        k: v
        for k, v in machine.global_contents().items()
        if not k.startswith("__rolag")
    }
    return result, contents


class TestLoopAwareOnTsvc:
    #: Kernels with the canonical unrolled shape (element-wise and
    #: reduction loops) that in-place rerolling should fully recover.
    RECOVERABLE = ["s000", "vpv", "vtv", "vpvtv", "vas", "s451", "s1281",
                   "vdotr", "vsumr", "s312", "s126", "s127"]

    @pytest.mark.parametrize("name", RECOVERABLE)
    def test_recovers_oracle_size(self, name):
        module = tsvc.build_unrolled_kernel(name)
        rolled = roll_loops_in_module(module, config=AWARE)
        verify_module(module)
        assert rolled == 1
        oracle = tsvc.build_kernel(name)
        assert function_size(module.get_function(name)) == function_size(
            oracle.get_function(name)
        )

    @pytest.mark.parametrize("name", RECOVERABLE)
    def test_preserves_semantics(self, name):
        base = tsvc.build_unrolled_kernel(name)
        module = tsvc.build_unrolled_kernel(name)
        roll_loops_in_module(module, config=AWARE)
        verify_module(module)
        assert run_kernel(base, name) == run_kernel(module, name)

    def test_beats_inner_loop_mode(self):
        nested_total = 0
        aware_total = 0
        for name in self.RECOVERABLE:
            nested = tsvc.build_unrolled_kernel(name)
            roll_loops_in_module(nested, config=RolagConfig(fast_math=True))
            nested_total += function_size(nested.get_function(name))
            aware = tsvc.build_unrolled_kernel(name)
            roll_loops_in_module(aware, config=AWARE)
            aware_total += function_size(aware.get_function(name))
        assert aware_total < nested_total


class TestLoopAwareSafety:
    def test_not_applied_without_full_coverage(self):
        # An extra store inside the loop would execute 8x more often if
        # the latch step shrank: loop-aware must refuse; the general
        # path must also stay semantics-preserving.
        src = """
@A = global [32 x i32] zeroinitializer
@S = global i32 0

define void @f() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %in, %loop ]
  %p = getelementptr [32 x i32], [32 x i32]* @A, i64 0, i32 %i
  store i32 1, i32* %p
  %old = load i32, i32* @S
  %bump = add i32 %old, 1
  store i32 %bump, i32* @S
  %in = add i32 %i, 1
  %c = icmp slt i32 %in, 32
  br i1 %c, label %loop, label %exit

exit:
  ret void
}
"""
        module = parse_module(src)
        unroll_loops(module.get_function("f"), 8)
        verify_module(module)
        before = execute(module, "f")
        roll_loops_in_module(module, config=AWARE)
        verify_module(module)
        after = execute(module, "f")
        assert before.same_behaviour(after), before.explain_difference(after)

    def test_not_applied_to_straight_line_code(self):
        # loop_aware must be a no-op outside loops: general path runs.
        src = """
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
        module = parse_module(src)
        before = execute(module, "f", buffer_specs=[ints_to_bytes([0] * 6)])
        rolled = roll_loops_in_module(module, config=AWARE)
        verify_module(module)
        after = execute(module, "f", buffer_specs=[ints_to_bytes([0] * 6)])
        assert rolled == 1  # general inner-loop path still fires
        assert before.same_behaviour(after)
        fn = module.get_function("f")
        assert len(fn.blocks) == 3  # preheader/loop/exit were created

    def test_step_mismatch_falls_back(self):
        # Unroll by 4 but only 2 lanes align (others differ): the iv
        # stride check must reject in-place rewriting.
        src = """
@A = global [32 x i32] zeroinitializer

define void @f() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %in, %loop ]
  %p0 = getelementptr [32 x i32], [32 x i32]* @A, i64 0, i32 %i
  store i32 1, i32* %p0
  %i1 = add i32 %i, 1
  %p1 = getelementptr [32 x i32], [32 x i32]* @A, i64 0, i32 %i1
  store i32 2, i32* %p1
  %i2 = add i32 %i, 2
  %p2 = getelementptr [32 x i32], [32 x i32]* @A, i64 0, i32 %i2
  store i32 1, i32* %p2
  %i3 = add i32 %i, 3
  %p3 = getelementptr [32 x i32], [32 x i32]* @A, i64 0, i32 %i3
  store i32 2, i32* %p3
  %in = add i32 %i, 4
  %c = icmp slt i32 %in, 32
  br i1 %c, label %loop, label %exit

exit:
  ret void
}
"""
        module = parse_module(src)
        before = execute(module, "f")
        roll_loops_in_module(module, config=AWARE)
        verify_module(module)
        after = execute(module, "f")
        assert before.same_behaviour(after), before.explain_difference(after)

    def test_whole_tsvc_suite_preserves_semantics(self):
        # Sweep: loop-aware over every kernel, differentially checked.
        failures = []
        for name in tsvc.kernel_names():
            base = tsvc.build_unrolled_kernel(name)
            module = tsvc.build_unrolled_kernel(name)
            roll_loops_in_module(module, config=AWARE)
            verify_module(module)
            if run_kernel(base, name) != run_kernel(module, name):
                failures.append(name)
        assert not failures, failures
