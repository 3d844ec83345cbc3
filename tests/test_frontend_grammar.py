"""Mini-C expression grammar: binary precedence, integer literals and
constant-folded global initializers."""

import itertools

import pytest

from repro.frontend import CParseError, LowerError, ast, compile_c, parse
from repro.frontend.parser import _BINARY_PRECEDENCE
from repro.ir import print_module, run_function

#: C's binary operators, loosest-binding level first (C11 6.5.5-6.5.14).
C_LEVELS = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]
LEVEL = {op: level for level, ops in enumerate(C_LEVELS) for op in ops}


def render(expr):
    """Fully parenthesised text of an expression AST."""
    if isinstance(expr, ast.Binary):
        return f"({render(expr.lhs)} {expr.op} {render(expr.rhs)})"
    if isinstance(expr, ast.Unary):
        return f"({expr.op}{render(expr.operand)})"
    if isinstance(expr, ast.Conditional):
        return (
            f"({render(expr.cond)} ? {render(expr.if_true)} : "
            f"{render(expr.if_false)})"
        )
    if isinstance(expr, ast.Assign):
        return f"({render(expr.target)} {expr.op} {render(expr.value)})"
    if isinstance(expr, ast.NameRef):
        return expr.name
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    raise AssertionError(f"unexpected node {expr!r}")


def parse_expr(text):
    unit = parse(f"int f(int a, int b, int c, int d) {{ return {text}; }}")
    (stmt,) = unit.items[0].body.statements
    return render(stmt.value)


def test_the_table_is_cs_binary_precedence():
    assert [tuple(ops) for ops in _BINARY_PRECEDENCE] == C_LEVELS


def test_every_operator_pair_groups_by_level_then_to_the_left():
    wrong = []
    for first, second in itertools.product(LEVEL, repeat=2):
        if LEVEL[first] >= LEVEL[second]:
            expected = f"((a {first} b) {second} c)"
        else:
            expected = f"(a {first} (b {second} c))"
        grouped = parse_expr(f"a {first} b {second} c")
        if grouped != expected:
            wrong.append(f"{grouped} != {expected}")
    assert not wrong


@pytest.mark.parametrize("text,grouped", [
    ("a - b - c - d", "(((a - b) - c) - d)"),
    ("a + b * c - d", "((a + (b * c)) - d)"),
    ("a || b && c | d", "(a || (b && (c | d)))"),
    ("a * b + c * d", "((a * b) + (c * d))"),
    ("a << b + c < d", "((a << (b + c)) < d)"),
    ("-a * b", "((-a) * b)"),
    ("a - -b", "(a - (-b))"),
    ("(a + b) * c", "((a + b) * c)"),
    ("a ? b : c || d", "(a ? b : (c || d))"),
    ("a = b + c", "(a = (b + c))"),
    ("a & b == c", "(a & (b == c))"),
])
def test_mixed_expressions(text, grouped):
    assert parse_expr(text) == grouped


class TestIntegerLiterals:
    @pytest.mark.parametrize("text,value", [
        ("0", 0), ("7", 7), ("010", 8), ("0777", 511), ("00", 0),
        ("010u", 8), ("0x10", 16), ("0X1f", 31), ("10L", 10),
    ])
    def test_decimal_octal_and_hex(self, text, value):
        module = compile_c(f"int f(void) {{ return {text}; }}")
        assert run_function(module, "f", [])[0] == value

    def test_octal_array_size(self):
        (item,) = parse("int g[010];").items
        assert item.ctype.count == 8

    @pytest.mark.parametrize("hex_text,decimal", [
        ("0x10u", "16u"), ("0xFFul", "255ul"), ("0x7fffffffU", "2147483647U"),
        ("0xFFFFFFFFu", "4294967295u"), ("0x10L", "16L"),
    ])
    def test_hex_suffixes_mean_what_decimal_ones_do(self, hex_text, decimal):
        def lowered(text):
            return print_module(
                compile_c(f"long f(void) {{ return {text} + -1; }}")
            )

        assert lowered(hex_text) == lowered(decimal)
        module = compile_c(f"long f(void) {{ return {hex_text}; }}")
        assert run_function(module, "f", [])[0] == int(decimal.rstrip("uUlL"))

    #: ``(expression, value)``: each literal takes the first of C's
    #: candidate types that holds it (int, long for decimal; int,
    #: unsigned, long, unsigned long for hex and octal; only unsigned
    #: ones after ``u``), with a 64-bit long.
    LITERAL_TYPES = [
        ("0x80000000 >> 31", 1), ("020000000000 >> 31", 1),
        ("0xFFFFFFFF + 1", 0), ("2147483648 >> 31", 1),
        ("-2147483648 >> 31", -1), ("4294967295 / 2", 2147483647),
        ("4294967295 + 1", 4294967296), ("0x100000000", 4294967296),
        ("4294967296u >> 32", 1), ("0xFFFFFFFFFFFFFFFF >> 63", 1),
        ("9223372036854775807 >> 62", 1), ("0x7fffffffL + 1", 2147483648),
        ("-1 < 0x80000000", 0), ("-1 < 2147483648", 1),
    ]

    @pytest.mark.parametrize("expr,value", LITERAL_TYPES)
    def test_a_literal_takes_the_first_type_that_holds_it(self, expr, value):
        module = compile_c(f"long f(void) {{ return {expr}; }}")
        assert run_function(module, "f", [])[0] == value

    @pytest.mark.parametrize("expr,value", [
        row for row in LITERAL_TYPES if "<" not in row[0]
    ])
    def test_a_global_initializer_types_literals_alike(self, expr, value):
        module = compile_c(f"long g = {expr};")
        assert module.get_global("g").initializer.value == value

    @pytest.mark.parametrize("text", ["09", "018", "0778"])
    def test_invalid_octal_digit_is_a_parse_error_with_its_line(self, text):
        with pytest.raises(CParseError, match=r"line 2: .*" + text):
            parse(f"int f(void) {{\n  return {text};\n}}")

    def test_invalid_octal_array_size_is_a_parse_error(self):
        with pytest.raises(CParseError, match="line 1"):
            parse("int g[09];")


class TestGlobalInitializerFolding:
    """A global initializer folds like the same expression in a body:
    C truncates ``/`` and ``%`` toward zero."""

    @pytest.mark.parametrize("expr,value", [
        ("-7 / 2", -3), ("-7 % 2", -1), ("7 / -2", -3), ("7 % -2", 1),
        ("-7 / -2", 3), ("-7 % -2", -1), ("7 / 2", 3), ("7 % 2", 1),
        ("-8 / 2", -4), ("1 + 2 * 3", 7), ("1 << 4", 16), ("-16 >> 2", -4),
    ])
    def test_matches_the_function_body(self, expr, value):
        module = compile_c(
            f"int g = {expr};\n"
            "int read(void) { return g; }\n"
            f"int body(void) {{ return {expr}; }}\n"
        )
        assert module.get_global("g").initializer.value == value
        assert run_function(module, "read", [])[0] == value
        assert run_function(module, "body", [])[0] == value

    def test_float_division_is_not_truncated(self):
        module = compile_c("double g = 7 / 2.0;")
        assert module.get_global("g").initializer.value == 3.5

    def test_float_remainder_is_rejected_as_in_a_body(self):
        with pytest.raises(LowerError, match="not a constant expression"):
            compile_c("double g = 7.5 % 2;")
        with pytest.raises(LowerError, match="invalid float op"):
            compile_c("double f(void) { return 7.5 % 2; }")

    def test_division_by_zero_is_a_lowering_error(self):
        with pytest.raises(LowerError, match="division by zero"):
            compile_c("int g = 1 / 0;")


class TestNegatedZero:
    """Float negation is exact: ``-0.0`` is negative zero, which
    ``1.0 / x`` tells from ``0.0``, in a body and in a global alike."""

    def test_a_returned_negative_zero(self):
        module = compile_c(
            "double neg(void) { return -0.0; }\n"
            "double pos(void) { return 0.0; }\n"
            "double inv_neg(void) { return 1.0 / neg(); }\n"
            "double inv_pos(void) { return 1.0 / pos(); }\n"
        )
        assert run_function(module, "inv_neg", [])[0] == float("-inf")
        assert run_function(module, "inv_pos", [])[0] == float("inf")

    def test_a_stored_negative_zero(self):
        module = compile_c(
            "double g = -0.0;\n"
            "double h = -(-0.0);\n"
            "double inv_g(void) { return 1.0 / g; }\n"
            "double inv_h(void) { return 1.0 / h; }\n"
        )
        assert run_function(module, "inv_g", [])[0] == float("-inf")
        assert run_function(module, "inv_h", [])[0] == float("inf")


#: ``(type, expression)``: signed, unsigned and mixed operands, every
#: foldable operator, and casts between widths and signedness.
CONVERSION_TABLE = [
    ("int", "-7 / 2"), ("int", "-1 >> 1"), ("int", "1 << 31"),
    ("int", "2147483647 + 1"), ("int", "~5"), ("int", "100 % -7"),
    ("int", "6 & 3 | 8 ^ 1"), ("int", "1 << 40"),
    ("unsigned", "-1 / 2u"), ("unsigned", "1u - 2"), ("unsigned", "~0u >> 1"),
    ("unsigned", "4294967295u / 3"), ("unsigned", "-7 % 3u"),
    ("unsigned", "0x80000000u >> 31"), ("unsigned", "-1u"),
    ("unsigned", "(unsigned)-1 / 2"), ("int", "-1 / 2u"),
    ("int", "(int)(-1 / 2u) >> 30"), ("unsigned", "~0u & -16"),
    ("long", "-1 / 2ul"), ("long", "4294967295u + 1l"), ("long", "-1 + 0ul"),
    ("long", "4294967295u + 1"), ("long", "-1 + 0u"), ("long", "1l << 40"),
    ("long", "-8l >> 1"), ("long", "0xFFFFFFFFu * 2ul"),
    ("unsigned long", "-1 >> 1ul"), ("unsigned long", "-1 / 2u"),
    ("int", "(unsigned char)300 + 1"), ("int", "(short)70000"),
    ("int", "(char)-129 * 2u"), ("long", "(unsigned)-2 + 3l"),
    ("double", "7 / 2.0"), ("double", "1u + 0.5"), ("double", "-1 / 2u + 0.5"),
    ("int", "(int)(2.5 * 3)"), ("unsigned", "(unsigned)3.9 + 1u"),
    ("float", "1.0f / 3"), ("double", "(float)0.1 * 3"),
    ("long", "4294967296"), ("long", "0x100000000"), ("long", "3000000000"),
    ("double", "3000000000"), ("double", "4294967296"),
    ("unsigned", "0x80000000 >> 31"), ("long", "-2147483648 / 2"),
    ("double", "0xFFFFFFFF + 0.5"), ("float", "0.1"), ("double", "-0.5f"),
]


class TestGlobalInitializerConversions:
    """A global initializer folds with C's usual arithmetic conversions:
    it stores what the same expression returned from a body computes."""

    @pytest.mark.parametrize("ctype,expr", CONVERSION_TABLE)
    def test_global_equals_the_body_expression(self, ctype, expr):
        module = compile_c(
            f"{ctype} g = {expr};\n"
            f"{ctype} read(void) {{ return g; }}\n"
            f"{ctype} body(void) {{ return {expr}; }}\n"
        )
        body = run_function(module, "body", [])[0]
        assert run_function(module, "read", [])[0] == body
        assert module.get_global("g").initializer.value == body

    @pytest.mark.parametrize("source", [
        "int x; int g = x;", "int x; int g = x = 1;", "int x[2]; int g = x[0];",
        "int f(void); int g = f();", "int g = 1 && 2;", "int g = 1 < 2;",
        "int g = 1 ? 2 : 3;", "int g = y;", "int *p = 0;",
    ])
    def test_a_non_constant_initializer_is_a_lowering_error(self, source):
        with pytest.raises(LowerError, match="not a constant expression"):
            compile_c(source)

    @pytest.mark.parametrize("op", ["<<", ">>", "&", "|", "^"])
    def test_a_float_operand_of_an_integer_operator_is_a_lowering_error(
        self, op
    ):
        with pytest.raises(LowerError, match="not a constant expression"):
            compile_c(f"int g = 1.5 {op} 2;")
        with pytest.raises(LowerError, match="not a constant expression"):
            compile_c(f"int g = 2 {op} 1.5;")
