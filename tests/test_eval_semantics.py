"""Every client of the shared evaluation semantics agrees with it.

``repro.ir.interp`` defines compare and cast semantics once, as the
tables :data:`ICMP_IMPLS`, :data:`FCMP_IMPLS` and :data:`CAST_IMPLS`
(with :data:`I1_ICMP_IMPLS` and :data:`I1_CAST_IMPLS` for ``i1``
operands, held as 0/1 and read as 0/-1 where a reader is signed, as in
LLVM).  This file holds the entry each case binds to an independent
reference or to pinned values, then runs every case on every backend in
:data:`EVALUATOR_CHOICES`, and folds icmp and integer casts through
:func:`fold_constants`, requiring bit-identical results.

The fuzzer draws no ``fcmp``, ``ule`` or ``uge``, so the parity sweeps
never reach them; this table does.
"""

import math
import operator
import struct

import pytest

from repro.ir import (
    CAST_OPCODES,
    F32,
    F64,
    I1,
    I8,
    I32,
    I64,
    parse_module,
    ptr,
)
from repro.ir.compile_eval import EVALUATOR_CHOICES, make_machine
from repro.ir.instructions import FCMP_PREDICATES, ICMP_PREDICATES
from repro.ir.interp import (
    CAST_IMPLS,
    FCMP_IMPLS,
    I1_ICMP_IMPLS,
    ICMP_IMPLS,
    cast_impl,
)
from repro.transforms.constfold import fold_constants

INF = float("inf")
NAN = float("nan")

INT_WIDTHS = (1, 8, 32, 64)

#: Values a float of either width holds exactly.
FLOAT_EDGES = (NAN, 0.0, -0.0, INF, -INF, 1.5, -2.25, 3.4028234663852886e38)

#: Doubles past the float and integer ranges.
DOUBLE_EDGES = FLOAT_EDGES + (1e300, -1e300, 2.0**63, -(2.0**63) - 4096.0)

POINTER_EDGES = (0, 64, 4096, 2**63, 2**64 - 1)

TYPES = {
    "i1": I1, "i8": I8, "i32": I32, "i64": I64,
    "float": F32, "double": F64, "i8*": ptr(I8), "i32*": ptr(I32),
}

_SIGNED = {
    "eq": operator.eq, "ne": operator.ne,
    "slt": operator.lt, "sle": operator.le,
    "sgt": operator.gt, "sge": operator.ge,
}
_UNSIGNED = {
    "ult": operator.lt, "ule": operator.le,
    "ugt": operator.gt, "uge": operator.ge,
}
_ORDERED = {
    "oeq": operator.eq, "one": operator.ne,
    "olt": operator.lt, "ole": operator.le,
    "ogt": operator.gt, "oge": operator.ge,
}


def int_edges(bits):
    """0, +-1, min and max, as values of ``i<bits>`` are held."""
    if bits == 1:
        return (0, 1)  # i1 values are held as 0/1
    return (0, 1, -1, -(1 << (bits - 1)), (1 << (bits - 1)) - 1)


def edges_of(ty_text):
    if ty_text.endswith("*"):
        return POINTER_EDGES
    if ty_text == "float":
        return FLOAT_EDGES
    if ty_text == "double":
        return DOUBLE_EDGES
    return int_edges(int(ty_text[1:]))


def literal(ty_text, value):
    if ty_text == "i1":
        return "true" if value else "false"
    return str(value)


def same(x, y):
    """Equal values of one Python type; floats compare bit for bit."""
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        return struct.pack("<d", x) == struct.pack("<d", y)
    return x == y


def signed(bits, value):
    """``value``'s two's-complement reading at ``bits`` (``i1`` true is
    -1)."""
    value %= 1 << bits
    return value - (1 << bits) if value >> (bits - 1) else value


def reference_icmp(pred, bits, a, b):
    if pred in _SIGNED:
        return int(_SIGNED[pred](signed(bits, a), signed(bits, b)))
    return int(_UNSIGNED[pred](a % (1 << bits), b % (1 << bits)))


def reference_fcmp(pred, a, b):
    unordered = math.isnan(a) or math.isnan(b)
    if pred == "ord":
        return int(not unordered)
    if pred == "uno":
        return int(unordered)
    return int(not unordered and _ORDERED[pred](a, b))


def backends_of(source):
    """``(name, machine)`` for every backend, and ``@f``."""
    module = parse_module(source)
    machines = [(e, make_machine(module, e)) for e in EVALUATOR_CHOICES]
    return machines, module.get_function("f")


def assert_backends(machines, fn, args, expected, what):
    for evaluator, machine in machines:
        got = machine.call(fn, list(args))
        assert same(got, expected), (
            f"{evaluator}: {what} {args}: got {got!r}, table {expected!r}"
        )


def folded(body, ty_text):
    """The constant ``fold_constants`` leaves for ``%r = <body>``."""
    module = parse_module(
        f"define {ty_text} @g() {{\nentry:\n  %r = {body}\n"
        f"  ret {ty_text} %r\n}}\n"
    )
    fn = module.get_function("g")
    fold_constants(fn)
    return fn.entry.instructions[-1].return_value.value


def test_tables_cover_every_opcode_and_predicate():
    assert set(ICMP_IMPLS) == set(ICMP_PREDICATES)
    assert set(FCMP_IMPLS) == set(FCMP_PREDICATES)
    assert set(CAST_IMPLS) == set(CAST_OPCODES)


@pytest.mark.parametrize("pred", sorted(ICMP_PREDICATES))
@pytest.mark.parametrize("bits", INT_WIDTHS)
def test_icmp(pred, bits):
    ty = f"i{bits}"
    machines, fn = backends_of(
        f"define i1 @f({ty} %a, {ty} %b) {{\nentry:\n"
        f"  %r = icmp {pred} {ty} %a, %b\n  ret i1 %r\n}}\n"
    )
    table = I1_ICMP_IMPLS if bits == 1 else ICMP_IMPLS
    for a in int_edges(bits):
        for b in int_edges(bits):
            expected = table[pred](bits, a, b)
            assert expected == reference_icmp(pred, bits, a, b), (pred, a, b)
            what = f"icmp {pred} {ty}"
            assert_backends(machines, fn, (a, b), expected, what)
            fold = folded(
                f"icmp {pred} {ty} {literal(ty, a)}, {literal(ty, b)}", "i1"
            )
            assert fold == expected, f"constfold: {what} {a}, {b}"


@pytest.mark.parametrize("pred", sorted(FCMP_PREDICATES))
@pytest.mark.parametrize("ty", ("float", "double"))
def test_fcmp(pred, ty):
    bits = 32 if ty == "float" else 64
    machines, fn = backends_of(
        f"define i1 @f({ty} %a, {ty} %b) {{\nentry:\n"
        f"  %r = fcmp {pred} {ty} %a, %b\n  ret i1 %r\n}}\n"
    )
    for a in FLOAT_EDGES:
        for b in FLOAT_EDGES:
            expected = FCMP_IMPLS[pred](bits, a, b)
            assert expected == reference_fcmp(pred, a, b), (pred, a, b)
            what = f"fcmp {pred} {ty}"
            assert_backends(machines, fn, (a, b), expected, what)


#: ``(opcode, source type, result type)``: every cast opcode, at
#: narrowing, widening and same-width pairs.
CASTS = (
    ("trunc", "i64", "i32"), ("trunc", "i32", "i8"), ("trunc", "i8", "i1"),
    ("zext", "i1", "i32"), ("zext", "i8", "i32"), ("zext", "i32", "i64"),
    ("sext", "i1", "i32"), ("sext", "i8", "i32"), ("sext", "i32", "i64"),
    ("fptrunc", "double", "float"), ("fpext", "float", "double"),
    ("fptosi", "double", "i32"), ("fptosi", "float", "i8"),
    ("fptosi", "double", "i64"),
    ("fptoui", "double", "i32"), ("fptoui", "float", "i8"),
    ("sitofp", "i32", "double"), ("sitofp", "i64", "float"),
    ("sitofp", "i8", "float"), ("sitofp", "i1", "double"),
    ("uitofp", "i32", "double"), ("uitofp", "i64", "float"),
    ("uitofp", "i1", "double"),
    ("ptrtoint", "i8*", "i64"), ("ptrtoint", "i32*", "i32"),
    ("inttoptr", "i64", "i8*"), ("inttoptr", "i32", "i8*"),
    ("bitcast", "float", "i32"), ("bitcast", "i32", "float"),
    ("bitcast", "double", "i64"), ("bitcast", "i64", "double"),
    ("bitcast", "i32*", "i8*"),
)

#: Independent expectations: ``(opcode, source, result, value, want)``.
PINNED = (
    ("trunc", "i32", "i8", 256, 0),
    ("trunc", "i64", "i32", -(2**63), 0),
    ("zext", "i8", "i32", -1, 255),
    ("sext", "i8", "i32", -1, -1),
    ("sext", "i1", "i32", 1, -1),
    ("sext", "i1", "i64", 0, 0),
    ("zext", "i1", "i32", 1, 1),
    ("zext", "i32", "i64", -(2**31), 2**31),
    ("fptosi", "double", "i32", NAN, 0),
    ("fptosi", "double", "i32", INF, 0),
    ("fptosi", "double", "i32", -2.25, -2),
    ("fptosi", "double", "i64", 2.0**63, -(2**63)),
    ("uitofp", "i32", "double", -1, 4294967295.0),
    ("sitofp", "i32", "double", -1, -1.0),
    ("sitofp", "i1", "double", 1, -1.0),
    ("sitofp", "i1", "float", 0, 0.0),
    ("uitofp", "i1", "double", 1, 1.0),
    ("sitofp", "i64", "float", 2**63 - 1, 9.223372036854775808e18),
    ("fptrunc", "double", "float", 1e300, INF),
    ("fptrunc", "double", "float", -1e300, -INF),
    ("fpext", "float", "double", -0.0, -0.0),
    ("bitcast", "float", "i32", 1.0, 0x3F800000),
    ("bitcast", "i32", "float", 0x3F800000, 1.0),
    ("bitcast", "double", "i64", -0.0, -(2**63)),
    ("inttoptr", "i64", "i8*", -1, 2**64 - 1),
    ("ptrtoint", "i8*", "i64", 2**64 - 1, -1),
)


def test_casts_cover_every_opcode():
    assert {opcode for opcode, _, _ in CASTS} == set(CAST_OPCODES)


@pytest.mark.parametrize("opcode,src_text,dst_text", CASTS)
def test_cast(opcode, src_text, dst_text):
    src, dst = TYPES[src_text], TYPES[dst_text]
    machines, fn = backends_of(
        f"define {dst_text} @f({src_text} %a) {{\nentry:\n"
        f"  %r = {opcode} {src_text} %a to {dst_text}\n"
        f"  ret {dst_text} %r\n}}\n"
    )
    int_cast = opcode in ("trunc", "zext", "sext")
    for value in edges_of(src_text):
        expected = cast_impl(opcode, src)(src, dst, value)
        what = f"{opcode} {src_text} to {dst_text}"
        assert_backends(machines, fn, (value,), expected, what)
        if int_cast:
            fold = folded(
                f"{opcode} {src_text} {literal(src_text, value)} "
                f"to {dst_text}",
                dst_text,
            )
            assert fold == expected, f"constfold: {what} {value}"


@pytest.mark.parametrize("opcode,src_text,dst_text,value,want", PINNED)
def test_pinned_cast(opcode, src_text, dst_text, value, want):
    src, dst = TYPES[src_text], TYPES[dst_text]
    assert same(cast_impl(opcode, src)(src, dst, value), want)
    machines, fn = backends_of(
        f"define {dst_text} @f({src_text} %a) {{\nentry:\n"
        f"  %r = {opcode} {src_text} %a to {dst_text}\n"
        f"  ret {dst_text} %r\n}}\n"
    )
    assert_backends(machines, fn, (value,), want, opcode)


#: LLVM's answers where a signed reader meets ``i1`` true (held as 1,
#: read as -1): ``(instruction, result type, args, want)``.
SIGNED_I1 = (
    ("sext i1 {a} to i32", "i32", (1,), -1),
    ("sitofp i1 {a} to double", "double", (1,), -1.0),
    ("icmp slt i1 {a}, {b}", "i1", (1, 0), 1),
    ("icmp sle i1 {a}, {b}", "i1", (0, 1), 0),
    ("icmp sgt i1 {a}, {b}", "i1", (0, 1), 1),
    ("icmp sge i1 {a}, {b}", "i1", (1, 0), 0),
)


@pytest.mark.parametrize("body,ty,args,want", SIGNED_I1)
def test_signed_reads_of_i1_follow_llvm(body, ty, args, want):
    names = "ab"[: len(args)]
    machines, fn = backends_of(
        f"define {ty} @f({', '.join(f'i1 %{n}' for n in names)}) {{\n"
        f"entry:\n  %r = {body.format(a='%a', b='%b')}\n"
        f"  ret {ty} %r\n}}\n"
    )
    assert_backends(machines, fn, args, want, body)
    if not body.startswith("sitofp"):  # constfold folds int casts only
        constants = {n: literal("i1", v) for n, v in zip(names, args)}
        assert folded(body.format(**constants), ty) == want, body
