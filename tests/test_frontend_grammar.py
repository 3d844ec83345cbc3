"""Mini-C expression grammar: binary precedence, integer literals and
constant-folded global initializers."""

import itertools

import pytest

from repro.frontend import CParseError, LowerError, ast, compile_c, parse
from repro.frontend.parser import _BINARY_PRECEDENCE
from repro.ir import run_function

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
