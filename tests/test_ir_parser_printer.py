"""Parser/printer round-trip and error handling tests."""

import pytest

from repro.difftest.fuzzer import FunctionFuzzer
from repro.ir import (
    ParseError,
    parse_function,
    parse_module,
    print_function,
    print_module,
    verify_module,
)


GOOD_MODULES = [
    # Simple arithmetic.
    """
define i32 @add1(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}
""",
    # All binary ops.
    """
define i32 @ops(i32 %a, i32 %b) {
entry:
  %t1 = add i32 %a, %b
  %t2 = sub i32 %t1, %b
  %t3 = mul i32 %t2, %b
  %t4 = sdiv i32 %t3, %b
  %t5 = udiv i32 %t4, %b
  %t6 = srem i32 %t5, %b
  %t7 = urem i32 %t6, %b
  %t8 = and i32 %t7, %b
  %t9 = or i32 %t8, %b
  %t10 = xor i32 %t9, %b
  %t11 = shl i32 %t10, %b
  %t12 = lshr i32 %t11, %b
  %t13 = ashr i32 %t12, %b
  ret i32 %t13
}
""",
    # Floats, casts, select, comparisons.
    """
define double @fops(double %x, float %y) {
entry:
  %w = fpext float %y to double
  %s = fadd double %x, %w
  %c = fcmp olt double %s, 1.5
  %r = select i1 %c, double %s, double %x
  %i = fptosi double %r to i32
  %b = sitofp i32 %i to double
  ret double %b
}
""",
    # Memory, globals, structs, geps.
    """
%struct.pair = type { i32, i64 }

@G = global [4 x i32] [i32 1, i32 2, i32 3, i32 4]

@P = global %struct.pair zeroinitializer

define i32 @use() {
entry:
  %p = getelementptr [4 x i32], [4 x i32]* @G, i64 0, i64 2
  %v = load i32, i32* %p
  %f = getelementptr %struct.pair, %struct.pair* @P, i64 0, i64 0
  store i32 %v, i32* %f
  ret i32 %v
}
""",
    # Control flow with phis.
    """
define i32 @count(i32 %n) {
entry:
  %start = icmp slt i32 0, %n
  br i1 %start, label %loop, label %done

loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %next = add i32 %i, 1
  %c = icmp slt i32 %next, %n
  br i1 %c, label %loop, label %done

done:
  %r = phi i32 [ 0, %entry ], [ %next, %loop ]
  ret i32 %r
}
""",
    # Declarations, calls, void functions, attributes.
    """
declare i32 @ext(i32, i32) readnone

declare void @sink(i8*)

define void @caller(i8* %p) {
entry:
  %r = call i32 @ext(i32 1, i32 2)
  call void @sink(i8* %p)
  ret void
}
""",
    # Allocas, i8/i16 types, undef/null.
    """
define i16 @small(i8 %x) {
entry:
  %slot = alloca i16
  %ext = sext i8 %x to i16
  store i16 %ext, i16* %slot
  %v = load i16, i16* %slot
  ret i16 %v
}
""",
]


MULTI_FUNCTION = """
declare i32 @ext(i32)

@G = global [4 x i32] [i32 1, i32 2, i32 3, i32 4]

define i32 @first(i32 %x) {
entry:
  %t = call i32 @third()
  %r = add i32 %x, %t
  ret i32 %r
}

define i32 @second(i32 %n) {
entry:
  %start = icmp slt i32 0, %n
  br i1 %start, label %loop, label %done
loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %sum, %loop ]
  %sum = add i32 %acc, %i
  %next = add i32 %i, 1
  %more = icmp slt i32 %next, %n
  br i1 %more, label %loop, label %done
done:
  %r = phi i32 [ 0, %entry ], [ %sum, %loop ]
  %c = call i32 @ext(i32 %r)
  ret i32 %c
}

define i32 @third() {
entry:
  %p = getelementptr [4 x i32], [4 x i32]* @G, i64 0, i64 2
  %v = load i32, i32* %p
  ret i32 %v
}
"""


def parse_error(source):
    with pytest.raises(ParseError) as excinfo:
        parse_module(source)
    return excinfo.value


class TestRoundTrip:
    @pytest.mark.parametrize("source", GOOD_MODULES)
    def test_parse_print_fixpoint(self, source):
        m1 = parse_module(source)
        verify_module(m1)
        text1 = print_module(m1)
        m2 = parse_module(text1)
        verify_module(m2)
        text2 = print_module(m2)
        assert text1 == text2

    def test_forward_function_reference(self):
        m = parse_module(
            """
define i32 @caller() {
entry:
  %r = call i32 @callee(i32 7)
  ret i32 %r
}

define i32 @callee(i32 %x) {
entry:
  ret i32 %x
}
"""
        )
        verify_module(m)
        call = m.get_function("caller").entry.instructions[0]
        assert call.callee is m.get_function("callee")

    def test_multi_function_module(self):
        m = parse_module(MULTI_FUNCTION)
        verify_module(m)
        assert [f.name for f in m.functions] == [
            "ext", "first", "second", "third"
        ]
        assert m.get_function("ext").is_declaration
        call = m.get_function("first").entry.instructions[0]
        assert call.callee is m.get_function("third")
        text = print_module(m)
        assert print_module(parse_module(text)) == text

    def test_fuzzed_print_parse_fixpoint(self):
        fuzzer = FunctionFuzzer(7)
        for index in range(25):
            module, _ = fuzzer.build(index)
            text1 = print_module(module)
            text2 = print_module(parse_module(text1))
            assert print_module(parse_module(text2)) == text2, (
                f"case {index} diverged"
            )

    def test_define_after_declare_takes_argument_names(self):
        m = parse_module(
            """
declare i32 @h(i32)

define i32 @h(i32 %a) {
entry:
  ret i32 %a
}
"""
        )
        verify_module(m)
        (fn,) = m.functions
        assert [a.name for a in fn.arguments] == ["a"]
        assert not fn.is_declaration

    def test_forward_value_reference_in_phi(self):
        m = parse_module(
            """
define i32 @f() {
entry:
  br label %loop

loop:
  %x = phi i32 [ 0, %entry ], [ %y, %loop ]
  %y = add i32 %x, 1
  %c = icmp slt i32 %y, 5
  br i1 %c, label %loop, label %out

out:
  ret i32 %y
}
"""
        )
        verify_module(m)

    def test_comments_ignored(self):
        m = parse_module(
            """
; a comment
define void @f() { ; trailing
entry:
  ret void ; done
}
"""
        )
        verify_module(m)

    def test_external_global(self):
        m = parse_module("@x = external global i32\n")
        assert m.get_global("x").initializer is None


class TestParseErrors:
    def test_unknown_instruction(self):
        with pytest.raises(ParseError):
            parse_module("define void @f() {\nentry:\n  frobnicate\n}")

    def test_unknown_type(self):
        with pytest.raises(ParseError):
            parse_module("define wibble @f() {\nentry:\n  ret void\n}")

    def test_unresolved_reference(self):
        with pytest.raises(ParseError):
            parse_module(
                "define i32 @f() {\nentry:\n  ret i32 %nope\n}"
            )

    def test_redefinition(self):
        with pytest.raises(ParseError):
            parse_module(
                """
define void @f() {
entry:
  %x = add i32 1, 2
  %x = add i32 3, 4
  ret void
}
"""
            )

    def test_broken_body_reports_position(self):
        error = parse_error(
            """define i32 @fine() {
entry:
  ret i32 0
}

define i32 @broken(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
  %s = frobnicate i32 %r
}
"""
        )
        assert (error.line, error.column) == (10, 8)
        assert "frobnicate" in str(error)
        assert str(error).startswith("line 10:8: ")

    @pytest.mark.parametrize(
        "source, line, column, message",
        [
            (
                "define i32 @f() {\nentry:\n  ret i32 0\n}\n"
                "define i32 @f() {\nentry:\n  ret i32 1\n}\n",
                5, 12, "redefinition of @f",
            ),
            (
                "@G = global i32 0\n@G = global i32 1\n",
                2, 1, "redefinition of @G",
            ),
            (
                "@x = global i32 0\ndeclare i32 @x()\n",
                2, 13, "redefinition of @x",
            ),
            (
                "declare i32 @x()\n@x = global i32 0\n",
                2, 1, "redefinition of @x",
            ),
            (
                "define i32 @g(i32 %a) {\nentry:\n  ret i32 %a\n}\n"
                "declare i64 @g(i64)\n",
                5, 13, "conflicting types for @g",
            ),
            (
                "declare i32 @g(i32)\n"
                "define i32 @g(i32 %a, i32 %b) {\nentry:\n  ret i32 %a\n}\n",
                2, 12, "conflicting types for @g",
            ),
        ],
        ids=[
            "second-define",
            "second-global",
            "function-after-global",
            "global-after-function",
            "declare-after-define-type",
            "define-after-declare-type",
        ],
    )
    def test_symbol_table_rejects(self, source, line, column, message):
        error = parse_error(source)
        assert (error.line, error.column) == (line, column)
        assert message in str(error)

    def test_unknown_callee(self):
        with pytest.raises(ParseError):
            parse_module(
                "define void @f() {\nentry:\n  call void @nothere()\n  ret void\n}"
            )

    def test_parse_function_requires_single_def(self):
        with pytest.raises(ValueError):
            parse_function("declare void @f()")


class TestPrinterDetails:
    def test_unnamed_values_get_names(self):
        from repro.ir import FunctionType, IRBuilder, Module, VOID, I32

        m = Module()
        fn = m.add_function("f", FunctionType(VOID, []))
        block = fn.add_block("entry")
        b = IRBuilder(block)
        x = b.add(b.i32(1), b.i32(2))
        x.name = ""
        b.ret()
        text = print_function(fn)
        assert "= add i32 1, 2" in text
        # And it stays parseable.
        parse_module(text)

    def test_duplicate_names_disambiguated(self):
        from repro.ir import FunctionType, IRBuilder, Module, VOID

        m = Module()
        fn = m.add_function("f", FunctionType(VOID, []))
        block = fn.add_block("entry")
        b = IRBuilder(block)
        x = b.add(b.i32(1), b.i32(2), name="v")
        y = b.add(b.i32(3), b.i32(4), name="v")
        b.ret()
        text = print_function(fn)
        m2 = parse_module(text)
        verify_module(m2)


def _bits(value):
    import struct

    return struct.pack("<d", value)


# Doubles whose printed spelling must parse back to the same bits: the
# printer writes ``repr(value)``, which drops the ``.`` for exponents
# (``1e+20``, ``1e-05``) and spells the specials ``inf``/``-inf``/``nan``.
DOUBLE_SPELLINGS = [
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),                      # smallest subnormal
    (-2.225073858507201e-308, "-2.225073858507201e-308"),  # largest subnormal
    (2.2250738585072014e-308, "2.2250738585072014e-308"),  # smallest normal
    (1e20, "1e+20"),
    (1e-05, "1e-05"),
    (-1.5e300, "-1.5e+300"),
    (1.7976931348623157e308, "1.7976931348623157e+308"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (0.1, "0.1"),
]

# Float (f32) constants hold values rounded to single precision; their
# printed doubles must come back as the same single.
FLOAT_SPELLINGS = [
    (0.1, "0.10000000149011612"),
    (1e20, "1.0000000200408773e+20"),
    (1e-05, "9.999999747378752e-06"),
    (1e-45, "1.401298464324817e-45"),        # smallest f32 subnormal
    (3.4028234663852886e38, "3.4028234663852886e+38"),
    (float("-inf"), "-inf"),
    (-0.0, "-0.0"),
]


class TestFloatConstantRoundTrip:
    @staticmethod
    def _module(ty, value):
        from repro.ir import ConstantFloat, FunctionType, IRBuilder, Module
        from repro.ir import F32, F64

        fty = {"double": F64, "float": F32}[ty]
        m = Module()
        fn = m.add_function("f", FunctionType(fty, [fty]))
        b = IRBuilder(fn.add_block("entry"))
        b.ret(b.fmul(fn.arguments[0], ConstantFloat(fty, value)))
        return m

    @staticmethod
    def _constant(module):
        return module.get_function("f").blocks[0].instructions[0].operands[1]

    @pytest.mark.parametrize("value,spelling", DOUBLE_SPELLINGS)
    def test_double_prints_and_parses_back_bit_for_bit(self, value, spelling):
        text = print_module(self._module("double", value))
        assert f", {spelling}\n" in text
        parsed = self._constant(parse_module(text))
        assert _bits(parsed.value) == _bits(value)
        assert print_module(parse_module(text)) == text

    @pytest.mark.parametrize("value,spelling", FLOAT_SPELLINGS)
    def test_float_prints_and_parses_back_bit_for_bit(self, value, spelling):
        module = self._module("float", value)
        rounded = self._constant(module).value
        text = print_module(module)
        assert f", {spelling}\n" in text
        parsed = self._constant(parse_module(text))
        assert _bits(parsed.value) == _bits(rounded)
        assert print_module(parse_module(text)) == text

    @pytest.mark.parametrize("ty", ["double", "float"])
    def test_nan_parses_back_as_nan(self, ty):
        text = print_module(self._module(ty, float("nan")))
        assert ", nan\n" in text
        parsed = self._constant(parse_module(text))
        assert parsed.value != parsed.value
        assert print_module(parse_module(text)) == text

    @pytest.mark.parametrize("spelling", ["inf", "nan", "1e+20", "-inf"])
    def test_float_spelling_for_an_integer_type_is_rejected(self, spelling):
        with pytest.raises(ParseError):
            parse_module(
                f"define i32 @f() {{\nentry:\n  ret i32 {spelling}\n}}\n"
            )
