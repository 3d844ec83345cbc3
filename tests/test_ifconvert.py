"""Tests for the if-conversion pass."""

import pytest

from tests.helpers import assert_transform_preserves, execute, ints_to_bytes

from repro.ir import Select, parse_module, verify_module
from repro.transforms import convert_ifs

pytestmark = pytest.mark.usefixtures("stamp_checker")


class TestTriangle:
    def test_empty_then_side(self):
        src = """
define i32 @f(i32 %x, i32 %y) {
entry:
  %c = icmp sgt i32 %x, %y
  br i1 %c, label %take, label %merge

take:
  br label %merge

merge:
  %r = phi i32 [ %x, %take ], [ %y, %entry ]
  ret i32 %r
}
"""
        def transform(m):
            return convert_ifs(m.get_function("f"))

        count, module = assert_transform_preserves(src, transform, "f", [3, 9])
        assert_transform_preserves(src, transform, "f", [9, 3])
        assert count == 1
        fn = module.get_function("f")
        assert len(fn.blocks) == 2  # side block gone; simplifycfg merges the rest
        assert any(isinstance(i, Select) for i in fn.entry.instructions)
        from repro.transforms import fold_constants, simplify_cfg

        simplify_cfg(fn)
        fold_constants(fn)
        assert len(fn.blocks) == 1

    def test_side_with_speculatable_code(self):
        src = """
define i32 @f(i32 %x, i1 %c) {
entry:
  br i1 %c, label %side, label %merge

side:
  %a = mul i32 %x, 3
  %b = add i32 %a, 1
  br label %merge

merge:
  %r = phi i32 [ %b, %side ], [ %x, %entry ]
  ret i32 %r
}
"""
        def transform(m):
            return convert_ifs(m.get_function("f"))

        count, module = assert_transform_preserves(src, transform, "f", [5, 1])
        assert_transform_preserves(src, transform, "f", [5, 0])
        assert count == 1

    def test_false_side_triangle(self):
        src = """
define i32 @f(i32 %x, i1 %c) {
entry:
  br i1 %c, label %merge, label %side

side:
  %a = sub i32 0, %x
  br label %merge

merge:
  %r = phi i32 [ %x, %entry ], [ %a, %side ]
  ret i32 %r
}
"""
        def transform(m):
            return convert_ifs(m.get_function("f"))

        count, _ = assert_transform_preserves(src, transform, "f", [7, 1])
        assert_transform_preserves(src, transform, "f", [7, 0])
        assert count == 1

    def test_store_blocks_conversion(self):
        src = """
define void @f(i32* %p, i1 %c) {
entry:
  br i1 %c, label %side, label %merge

side:
  store i32 1, i32* %p
  br label %merge

merge:
  ret void
}
"""
        m = parse_module(src)
        assert convert_ifs(m.get_function("f")) == 0

    def test_load_blocks_conversion(self):
        src = """
define i32 @f(i32* %p, i1 %c) {
entry:
  br i1 %c, label %side, label %merge

side:
  %v = load i32, i32* %p
  br label %merge

merge:
  %r = phi i32 [ %v, %side ], [ 0, %entry ]
  ret i32 %r
}
"""
        m = parse_module(src)
        assert convert_ifs(m.get_function("f")) == 0

    def test_division_blocks_conversion(self):
        src = """
define i32 @f(i32 %x, i32 %y, i1 %c) {
entry:
  br i1 %c, label %side, label %merge

side:
  %q = sdiv i32 %x, %y
  br label %merge

merge:
  %r = phi i32 [ %q, %side ], [ 0, %entry ]
  ret i32 %r
}
"""
        m = parse_module(src)
        assert convert_ifs(m.get_function("f")) == 0

    def test_budget_blocks_conversion(self):
        lines = [
            "define i32 @f(i32 %x, i1 %c) {",
            "entry:",
            "  br i1 %c, label %side, label %merge",
            "",
            "side:",
        ]
        prev = "%x"
        for i in range(10):  # over SPECULATION_BUDGET
            lines.append(f"  %a{i} = add i32 {prev}, {i}")
            prev = f"%a{i}"
        lines += [
            "  br label %merge",
            "",
            "merge:",
            f"  %r = phi i32 [ {prev}, %side ], [ %x, %entry ]",
            "  ret i32 %r",
            "}",
        ]
        m = parse_module("\n".join(lines))
        assert convert_ifs(m.get_function("f")) == 0


class TestDiamond:
    def test_both_sides_speculated(self):
        src = """
define i32 @f(i32 %x, i1 %c) {
entry:
  br i1 %c, label %t, label %f

t:
  %a = add i32 %x, 10
  br label %merge

f:
  %b = mul i32 %x, 2
  br label %merge

merge:
  %r = phi i32 [ %a, %t ], [ %b, %f ]
  ret i32 %r
}
"""
        def transform(m):
            return convert_ifs(m.get_function("f"))

        count, module = assert_transform_preserves(src, transform, "f", [5, 1])
        assert_transform_preserves(src, transform, "f", [5, 0])
        assert count == 1
        assert len(module.get_function("f").blocks) == 2

    def test_multiple_phis(self):
        src = """
define i32 @f(i32 %x, i1 %c) {
entry:
  br i1 %c, label %t, label %f

t:
  %a1 = add i32 %x, 1
  %a2 = add i32 %x, 2
  br label %merge

f:
  %b1 = sub i32 %x, 1
  %b2 = sub i32 %x, 2
  br label %merge

merge:
  %p = phi i32 [ %a1, %t ], [ %b1, %f ]
  %q = phi i32 [ %a2, %t ], [ %b2, %f ]
  %r = mul i32 %p, %q
  ret i32 %r
}
"""
        def transform(m):
            return convert_ifs(m.get_function("f"))

        count, _ = assert_transform_preserves(src, transform, "f", [9, 1])
        assert_transform_preserves(src, transform, "f", [9, 0])
        assert count == 1

    def test_shared_merge_with_other_preds(self):
        # A merge block with an extra predecessor: the triangle/diamond
        # must still handle (or refuse) it without corrupting phis.
        src = """
define i32 @f(i32 %x, i1 %c, i1 %d) {
entry:
  br i1 %d, label %early, label %branch

early:
  br label %merge

branch:
  br i1 %c, label %side, label %merge

side:
  %a = add i32 %x, 5
  br label %merge

merge:
  %r = phi i32 [ 0, %early ], [ %x, %branch ], [ %a, %side ]
  ret i32 %r
}
"""
        def transform(m):
            return convert_ifs(m.get_function("f"))

        for args in ([1, 1, 0], [1, 0, 0], [1, 0, 1], [1, 1, 1]):
            assert_transform_preserves(src, transform, "f", args)


class TestNestedAndChained:
    def test_chain_of_triangles_fixpoint(self):
        src = """
define i32 @f(i32 %x, i1 %c1, i1 %c2) {
entry:
  br i1 %c1, label %s1, label %m1

s1:
  %a = add i32 %x, 1
  br label %m1

m1:
  %p = phi i32 [ %a, %s1 ], [ %x, %entry ]
  br i1 %c2, label %s2, label %m2

s2:
  %b = mul i32 %p, 2
  br label %m2

m2:
  %q = phi i32 [ %b, %s2 ], [ %p, %m1 ]
  ret i32 %q
}
"""
        def transform(m):
            return convert_ifs(m.get_function("f"))

        for args in ([4, 0, 0], [4, 0, 1], [4, 1, 0], [4, 1, 1]):
            count, _ = assert_transform_preserves(src, transform, "f", args)
            assert count == 2
