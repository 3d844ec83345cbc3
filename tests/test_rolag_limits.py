"""Known-limitation tests (paper Fig. 20 and Section V-C).

RoLAG is a single-block transform: multi-block loop bodies and min/max
reductions (compare+branch form) are out of scope -- the pass must skip
them cleanly rather than miscompile.
"""

import pytest

from tests.helpers import assert_transform_preserves, execute, ints_to_bytes

from repro.frontend import compile_c
from repro.ir import parse_module, verify_module
from repro.rolag import RolagConfig, RolagStats, roll_loops_in_module
from repro.transforms import unroll_loops

pytestmark = pytest.mark.usefixtures("stamp_checker")


class TestMultiBlockLimitation:
    def test_conditional_body_not_rolled(self):
        # Paper Fig. 20a (kernel s271): if inside the loop body means
        # multiple blocks after unrolling; neither technique handles it.
        source = """
int a[64]; int b[64]; int c[64];

void s271(void) {
  for (int i = 0; i < 64; i++) {
    if (b[i] > 0) {
      a[i] += b[i] * c[i];
    }
  }
}
"""
        module = compile_c(source)
        unroll_loops(module.get_function("s271"), 8)
        verify_module(module)
        stats = RolagStats()
        rolled = roll_loops_in_module(module, stats=stats)
        # The unrolled body spans many blocks; the per-block store
        # groups are all 1-wide, so nothing rolls.
        assert rolled == 0

    MINMAX_SOURCE = """
int a[32];

int s3113(void) {
  int max = a[0];
  for (int i = 1; i < 25; i++) {
    if (a[i] > max) {
      max = a[i];
    }
  }
  return max;
}
"""

    def test_min_max_rolled_loop_left_alone(self):
        # Paper Fig. 20b (kernel s3113): already-rolled min/max loops
        # have a single select link -- nothing to roll.
        module = compile_c(self.MINMAX_SOURCE)
        stats = RolagStats()
        rolled = roll_loops_in_module(module, stats=stats)
        assert rolled == 0

    def test_min_max_extension_rolls_unrolled_chain(self):
        # The paper proposes supporting this via the select lowering
        # ("the single block solution should suffice"); the
        # MinMaxReductionNode extension implements it.
        from repro.ir import Machine, I32

        module = compile_c(self.MINMAX_SOURCE)
        unroll_loops(module.get_function("s3113"), 8)
        verify_module(module)

        def run(mod):
            machine = Machine(mod)
            addr = machine.global_addresses["a"]
            for i in range(32):
                machine.write_value(addr + 4 * i, I32, (i * 37) % 61 - 13)
            return machine.call(mod.get_function("s3113"), [])

        expected = run(module)
        stats = RolagStats()
        rolled = roll_loops_in_module(module, stats=stats)
        verify_module(module)
        assert rolled == 1
        assert stats.node_counts["minmax"] == 1
        assert run(module) == expected

    def test_min_max_extension_can_be_disabled(self):
        module = compile_c(self.MINMAX_SOURCE)
        unroll_loops(module.get_function("s3113"), 8)
        config = RolagConfig(enable_minmax=False)
        assert roll_loops_in_module(module, config=config) == 0


class TestRobustness:
    def test_empty_function(self):
        m = parse_module("define void @f() {\nentry:\n  ret void\n}")
        assert roll_loops_in_module(m) == 0

    def test_declaration_only_module(self):
        m = parse_module("declare void @x(i32)")
        assert roll_loops_in_module(m) == 0

    def test_single_store(self):
        m = parse_module(
            """
define void @f(i32* %p) {
entry:
  store i32 1, i32* %p
  ret void
}
"""
        )
        assert roll_loops_in_module(m) == 0

    def test_volatile_like_duplicate_stores_to_same_address(self):
        # All stores hit the same location: ptr stride is zero, so the
        # ptr-seq rule does not apply; only the last store survives
        # semantically and rolling must keep that outcome.
        src = """
define void @f(i32* %p) {
entry:
  store i32 1, i32* %p
  store i32 2, i32* %p
  store i32 3, i32* %p
  store i32 4, i32* %p
  ret void
}
"""
        def transform(m):
            return roll_loops_in_module(m)

        _, module = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([0])]
        )

    def test_mixed_width_stores_not_grouped(self):
        src = """
define void @f(i8* %p) {
entry:
  store i8 1, i8* %p
  %q = bitcast i8* %p to i32*
  %q1 = getelementptr i32, i32* %q, i64 1
  store i32 2, i32* %q1
  %p2 = getelementptr i8, i8* %p, i64 8
  store i8 3, i8* %p2
  ret void
}
"""
        m = parse_module(src)
        rolled = roll_loops_in_module(m)
        verify_module(m)
        assert rolled == 0

    def test_all_special_nodes_disabled_still_safe(self):
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
  ret void
}
"""
        config = RolagConfig().all_special_disabled()

        def transform(m):
            return roll_loops_in_module(m, config=config)

        assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([0] * 4)]
        )

    def test_deeply_nested_gep_chains(self):
        src = """
define void @f(i8* %p) {
entry:
  %a = getelementptr i8, i8* %p, i64 1
  %b = getelementptr i8, i8* %a, i64 1
  %c = getelementptr i8, i8* %b, i64 1
  store i8 1, i8* %c
  %d = getelementptr i8, i8* %p, i64 6
  store i8 1, i8* %d
  %e = getelementptr i8, i8* %p, i64 9
  store i8 1, i8* %e
  %g = getelementptr i8, i8* %p, i64 12
  store i8 1, i8* %g
  ret void
}
"""
        def transform(m):
            return roll_loops_in_module(m)

        rolled, _ = assert_transform_preserves(
            src, transform, "f", buffer_specs=[b"\0" * 16]
        )
        # Offsets 3, 6, 9, 12 form a stride-3 byte sequence across a
        # nested chain; rolling is legal either way.

    def test_rolling_then_cleanup_pipeline(self):
        from repro.transforms import default_cleanup_pipeline

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
  ret void
}
"""
        def transform(m):
            rolled = roll_loops_in_module(m)
            default_cleanup_pipeline().run(m)
            return rolled

        rolled, module = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([0] * 5)]
        )
        assert rolled == 1
