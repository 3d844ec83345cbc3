"""Tests for mem2reg, constfold, cse, dce, simplifycfg (differential)."""

import pytest

from tests.helpers import assert_transform_preserves, execute, ints_to_bytes

from repro.ir import (
    Alloca,
    Load,
    Phi,
    Store,
    parse_module,
    verify_module,
)
from repro.transforms import (
    default_cleanup_pipeline,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    promote_memory_to_registers,
    simplify_cfg,
)

pytestmark = pytest.mark.usefixtures("stamp_checker")


class TestMem2Reg:
    COUNT_UP = """
define i32 @f(i32 %n) {
entry:
  %i = alloca i32
  %acc = alloca i32
  store i32 0, i32* %i
  store i32 0, i32* %acc
  br label %loop

loop:
  %iv = load i32, i32* %i
  %av = load i32, i32* %acc
  %an = add i32 %av, %iv
  store i32 %an, i32* %acc
  %in = add i32 %iv, 1
  store i32 %in, i32* %i
  %c = icmp slt i32 %in, %n
  br i1 %c, label %loop, label %out

out:
  %r = load i32, i32* %acc
  ret i32 %r
}
"""

    def test_promotes_and_preserves(self):
        def transform(m):
            return promote_memory_to_registers(m.get_function("f"))

        count, module = assert_transform_preserves(
            self.COUNT_UP, transform, "f", [10]
        )
        assert count == 2
        fn = module.get_function("f")
        assert not any(isinstance(i, Alloca) for i in fn.instructions())
        assert not any(isinstance(i, Load) for i in fn.instructions())
        # Loop gained phis.
        blocks = {b.name: b for b in fn.blocks}
        assert len(blocks["loop"].phis()) == 2

    def test_erased_loads_and_stores_are_detached(self):
        module = parse_module(self.COUNT_UP)
        fn = module.get_function("f")
        erased = [
            i for i in fn.instructions() if isinstance(i, (Alloca, Load, Store))
        ]
        survivors = {
            b.name: [i for i in b.instructions if i not in erased]
            for b in fn.blocks
        }
        promote_memory_to_registers(fn)
        for inst in erased:
            assert inst.parent is None
            assert inst.operands == [] and inst.uses == []
        # Every block keeps its other instructions, in order, after the
        # new phis.
        for block in fn.blocks:
            rest = block.instructions[len(block.phis()):]
            assert rest == survivors[block.name]
        verify_module(module)

    def test_diamond_phi_placement(self):
        src = """
define i32 @f(i1 %c) {
entry:
  %x = alloca i32
  store i32 0, i32* %x
  br i1 %c, label %a, label %b

a:
  store i32 1, i32* %x
  br label %m

b:
  store i32 2, i32* %x
  br label %m

m:
  %v = load i32, i32* %x
  ret i32 %v
}
"""
        def transform(m):
            return promote_memory_to_registers(m.get_function("f"))

        _, module = assert_transform_preserves(src, transform, "f", [1])
        assert_transform_preserves(src, transform, "f", [0])
        fn = module.get_function("f")
        blocks = {b.name: b for b in fn.blocks}
        assert len(blocks["m"].phis()) == 1

    def test_non_promotable_escaped(self):
        src = """
declare void @sink(i32*)

define i32 @f() {
entry:
  %x = alloca i32
  store i32 7, i32* %x
  call void @sink(i32* %x)
  %v = load i32, i32* %x
  ret i32 %v
}
"""
        m = parse_module(src)
        assert promote_memory_to_registers(m.get_function("f")) == 0
        verify_module(m)

    def test_aggregate_alloca_not_promoted(self):
        src = """
define i32 @f() {
entry:
  %arr = alloca [4 x i32]
  %p = getelementptr [4 x i32], [4 x i32]* %arr, i64 0, i64 0
  store i32 5, i32* %p
  %v = load i32, i32* %p
  ret i32 %v
}
"""
        m = parse_module(src)
        assert promote_memory_to_registers(m.get_function("f")) == 0

    def test_uninitialized_read_becomes_undef(self):
        src = """
define i32 @f() {
entry:
  %x = alloca i32
  %v = load i32, i32* %x
  ret i32 %v
}
"""
        m = parse_module(src)
        promote_memory_to_registers(m.get_function("f"))
        verify_module(m)


class TestConstFold:
    def test_folds_arithmetic(self):
        src = """
define i32 @f() {
entry:
  %a = add i32 2, 3
  %b = mul i32 %a, 4
  %c = sub i32 %b, 5
  ret i32 %c
}
"""
        def transform(m):
            return fold_constants(m.get_function("f"))

        rewrites, module = assert_transform_preserves(src, transform, "f")
        assert rewrites == 3
        fn = module.get_function("f")
        assert len(fn.entry.instructions) == 1  # just the ret

    def test_identities(self):
        src = """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 0
  %b = mul i32 %a, 1
  %c = or i32 %b, 0
  %d = xor i32 %c, 0
  %z = mul i32 %d, 0
  %e = add i32 %d, %z
  ret i32 %e
}
"""
        def transform(m):
            return fold_constants(m.get_function("f"))

        _, module = assert_transform_preserves(src, transform, "f", [41])
        fn = module.get_function("f")
        assert len(fn.entry.instructions) == 1

    def test_icmp_and_select_fold(self):
        src = """
define i32 @f(i32 %x) {
entry:
  %c = icmp slt i32 1, 2
  %r = select i1 %c, i32 %x, i32 0
  ret i32 %r
}
"""
        def transform(m):
            return fold_constants(m.get_function("f"))

        _, module = assert_transform_preserves(src, transform, "f", [9])
        assert len(module.get_function("f").entry.instructions) == 1

    def test_division_by_zero_not_folded(self):
        src = """
define i32 @f(i32 %x) {
entry:
  %q = select i1 false, i32 1, i32 %x
  ret i32 %q
}
"""
        m = parse_module(src)
        fold_constants(m.get_function("f"))
        verify_module(m)
        # sdiv 1, 0 must never be materialised by the folder:
        src2 = """
define i32 @f() {
entry:
  %q = sdiv i32 1, 0
  ret i32 %q
}
"""
        m2 = parse_module(src2)
        fold_constants(m2.get_function("f"))  # must not crash
        verify_module(m2)

    def test_phi_with_single_value(self):
        src = """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b

a:
  br label %m

b:
  br label %m

m:
  %p = phi i32 [ 7, %a ], [ 7, %b ]
  ret i32 %p
}
"""
        def transform(m):
            return fold_constants(m.get_function("f"))

        rewrites, module = assert_transform_preserves(src, transform, "f", [1])
        assert rewrites == 1


class TestCSE:
    def test_repeated_expression(self):
        src = """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = add i32 %x, 1
  %c = add i32 %a, %b
  ret i32 %c
}
"""
        def transform(m):
            return eliminate_common_subexpressions(m.get_function("f"))

        eliminated, module = assert_transform_preserves(src, transform, "f", [5])
        assert eliminated == 1

    def test_commutative_matching(self):
        src = """
define i32 @f(i32 %x, i32 %y) {
entry:
  %a = add i32 %x, %y
  %b = add i32 %y, %x
  %c = sub i32 %a, %b
  ret i32 %c
}
"""
        def transform(m):
            return eliminate_common_subexpressions(m.get_function("f"))

        eliminated, _ = assert_transform_preserves(src, transform, "f", [3, 4])
        assert eliminated == 1

    def test_load_invalidated_by_store(self):
        src = """
define i32 @f(i32* %p) {
entry:
  %a = load i32, i32* %p
  store i32 99, i32* %p
  %b = load i32, i32* %p
  %c = add i32 %a, %b
  ret i32 %c
}
"""
        def transform(m):
            return eliminate_common_subexpressions(m.get_function("f"))

        eliminated, _ = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([7])]
        )
        assert eliminated == 0

    def test_load_reused_when_safe(self):
        src = """
define i32 @f(i32* %p) {
entry:
  %a = load i32, i32* %p
  %b = load i32, i32* %p
  %c = add i32 %a, %b
  ret i32 %c
}
"""
        def transform(m):
            return eliminate_common_subexpressions(m.get_function("f"))

        eliminated, _ = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([7])]
        )
        assert eliminated == 1

    def test_signed_zeros_are_different_operands(self):
        # x + 0.0 and x + -0.0 differ at x = -0.0 (0.0 against -0.0),
        # which the reciprocals turn into inf against -inf.
        src = """
define double @f(double %x) {
entry:
  %a = fadd double %x, 0.0
  %b = fadd double %x, -0.0
  %c = fdiv double 1.0, %a
  %d = fdiv double 1.0, %b
  %e = fsub double %c, %d
  ret double %e
}
"""
        def transform(m):
            return eliminate_common_subexpressions(m.get_function("f"))

        eliminated, _ = assert_transform_preserves(src, transform, "f", [-0.0])
        assert eliminated == 0


class TestDCE:
    def test_removes_dead_chain(self):
        src = """
define i32 @f(i32 %x) {
entry:
  %dead1 = add i32 %x, 1
  %dead2 = mul i32 %dead1, 2
  %live = add i32 %x, 5
  ret i32 %live
}
"""
        def transform(m):
            return eliminate_dead_code(m.get_function("f"))

        removed, module = assert_transform_preserves(src, transform, "f", [1])
        assert removed == 2
        assert len(module.get_function("f").entry.instructions) == 2

    def test_keeps_side_effects(self):
        src = """
define void @f(i32* %p) {
entry:
  store i32 1, i32* %p
  ret void
}
"""
        def transform(m):
            return eliminate_dead_code(m.get_function("f"))

        removed, _ = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([0])]
        )
        assert removed == 0

    def test_removes_unreachable_blocks(self):
        src = """
define i32 @f() {
entry:
  ret i32 1

island:
  %x = add i32 1, 2
  br label %island
}
"""
        m = parse_module(src)
        removed = eliminate_dead_code(m.get_function("f"))
        verify_module(m)
        assert len(m.get_function("f").blocks) == 1

    def test_dead_readnone_call_removed(self):
        src = """
declare i32 @pure(i32) readnone

define i32 @f(i32 %x) {
entry:
  %unused = call i32 @pure(i32 %x)
  ret i32 %x
}
"""
        m = parse_module(src)
        removed = eliminate_dead_code(m.get_function("f"))
        assert removed == 1

    def test_dead_opaque_call_kept(self):
        src = """
declare i32 @opaque(i32)

define i32 @f(i32 %x) {
entry:
  %unused = call i32 @opaque(i32 %x)
  ret i32 %x
}
"""
        m = parse_module(src)
        removed = eliminate_dead_code(m.get_function("f"))
        assert removed == 0


class TestSimplifyCFG:
    def test_fold_constant_branch(self):
        src = """
define i32 @f() {
entry:
  br i1 true, label %a, label %b

a:
  ret i32 1

b:
  ret i32 2
}
"""
        def transform(m):
            return simplify_cfg(m.get_function("f"))

        _, module = assert_transform_preserves(src, transform, "f")
        fn = module.get_function("f")
        names = [b.name for b in fn.blocks]
        assert "b" not in names

    def test_merge_linear_blocks(self):
        src = """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  br label %second

second:
  %b = add i32 %a, 2
  br label %third

third:
  ret i32 %b
}
"""
        def transform(m):
            return simplify_cfg(m.get_function("f"))

        _, module = assert_transform_preserves(src, transform, "f", [1])
        assert len(module.get_function("f").blocks) == 1

    def test_phi_resolved_on_merge(self):
        src = """
define i32 @f(i32 %x) {
entry:
  br label %next

next:
  %p = phi i32 [ %x, %entry ]
  ret i32 %p
}
"""
        def transform(m):
            return simplify_cfg(m.get_function("f"))

        _, module = assert_transform_preserves(src, transform, "f", [3])
        assert len(module.get_function("f").blocks) == 1


class TestPipeline:
    def test_full_cleanup_pipeline(self):
        src = """
define i32 @f(i32 %n) {
entry:
  %i = alloca i32
  store i32 0, i32* %i
  %cst = add i32 2, 3
  br i1 true, label %work, label %never

work:
  %v = load i32, i32* %i
  %r = add i32 %v, %cst
  ret i32 %r

never:
  ret i32 -1
}
"""
        def transform(m):
            return default_cleanup_pipeline().run(m)

        changed, module = assert_transform_preserves(src, transform, "f", [0])
        assert changed > 0
        fn = module.get_function("f")
        assert len(fn.blocks) == 1
        assert len(fn.entry.instructions) == 1  # ret i32 5
