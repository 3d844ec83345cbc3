"""Constfold's evaluator must agree with the interpreter, bit for bit.

The two integer evaluators used to be separate implementations; a
divergence (constfold computing in unbounded Python ints, the
interpreter wrapping to the result width) is a silent miscompile
factory.  Constfold now delegates to
:func:`repro.ir.interp.eval_int_binop`, and this table pins the
agreement -- including the edge operands where wrapping, division
semantics, and shift-amount handling show: INT_MIN, -1, 0, bits-1,
bits, and 2*bits.
"""

import pytest

from repro.frontend import compile_c
from repro.ir import (
    BINARY_OPCODES,
    I8,
    I16,
    I32,
    I64,
    TrapError,
    parse_module,
    print_module,
)
from repro.ir.compile_eval import EVALUATOR_CHOICES
from repro.ir.interp import (
    INT_MIN_DIV_WRAPS,
    SHIFT_AMOUNT_MODULO_BITS,
    eval_int_binop,
    run_function,
)
from repro.transforms.constfold import fold_constants, fold_int_binop

INT_OPCODES = sorted(
    op for op in BINARY_OPCODES if not op.startswith("f")
)

WIDTHS = (I8, I16, I32, I64)


def edge_operands(ty):
    bits = ty.bits
    return (
        ty.signed_min,
        -1,
        0,
        1,
        2,
        bits - 1,
        bits,
        2 * bits,
        ty.signed_max,
    )


@pytest.mark.parametrize("opcode", INT_OPCODES)
@pytest.mark.parametrize("ty", WIDTHS, ids=lambda t: str(t))
def test_fold_matches_interpreter(opcode, ty):
    for a in edge_operands(ty):
        for b in edge_operands(ty):
            try:
                expected = eval_int_binop(opcode, ty.bits, a, b)
            except TrapError:
                # A trapping operation must never be folded away.
                assert fold_int_binop(opcode, ty, a, b) is None
                continue
            folded = fold_int_binop(opcode, ty, a, b)
            assert folded == expected, (
                f"{opcode} {ty} {a}, {b}: fold={folded} interp={expected}"
            )
            # Every folded result must be representable in the type.
            assert ty.signed_min <= folded <= ty.signed_max


@pytest.mark.parametrize("evaluator", EVALUATOR_CHOICES)
@pytest.mark.parametrize("opcode", INT_OPCODES)
@pytest.mark.parametrize("ty", WIDTHS, ids=lambda t: str(t))
def test_evaluators_match_binop_table(opcode, ty, evaluator):
    """Executing ``%r = <op> %a, %b`` agrees with the table, per backend.

    The table pins fold-vs-interp above; this pins what the machines
    actually *execute* -- including the compiled backend's pre-bound
    binop closures -- to the very same edge operands.
    """
    module = parse_module(
        f"""
define {ty} @f({ty} %a, {ty} %b) {{
entry:
  %r = {opcode} {ty} %a, %b
  ret {ty} %r
}}
"""
    )
    for a in edge_operands(ty):
        for b in edge_operands(ty):
            try:
                expected = eval_int_binop(opcode, ty.bits, a, b)
            except TrapError:
                with pytest.raises(TrapError):
                    run_function(module, "f", (a, b), evaluator=evaluator)
                continue
            result, _ = run_function(module, "f", (a, b), evaluator=evaluator)
            assert result == expected, (
                f"{evaluator}: {opcode} {ty} {a}, {b}: "
                f"got={result} table={expected}"
            )


def test_add_wraps_to_width():
    assert eval_int_binop("add", 8, 127, 1) == -128
    assert eval_int_binop("mul", 8, 16, 16) == 0
    assert fold_int_binop("add", I8, 127, 1) == -128


def test_int_min_div_minus_one_wraps():
    # The documented contract: INT_MIN / -1 wraps instead of trapping,
    # in *both* evaluators.
    assert INT_MIN_DIV_WRAPS
    for ty in WIDTHS:
        assert eval_int_binop("sdiv", ty.bits, ty.signed_min, -1) == ty.signed_min
        assert fold_int_binop("sdiv", ty, ty.signed_min, -1) == ty.signed_min
        assert eval_int_binop("srem", ty.bits, ty.signed_min, -1) == 0
        assert fold_int_binop("srem", ty, ty.signed_min, -1) == 0


def test_division_by_zero_traps_and_never_folds():
    for opcode in ("sdiv", "udiv", "srem", "urem"):
        with pytest.raises(TrapError):
            eval_int_binop(opcode, 32, 7, 0)
        assert fold_int_binop(opcode, I32, 7, 0) is None


def test_sdiv_truncates_toward_zero():
    assert eval_int_binop("sdiv", 32, -7, 2) == -3
    assert eval_int_binop("sdiv", 32, 7, -2) == -3
    assert eval_int_binop("srem", 32, -7, 2) == -1
    assert eval_int_binop("srem", 32, 7, -2) == 1


def test_shift_amounts_reduce_modulo_width():
    assert SHIFT_AMOUNT_MODULO_BITS
    # shl by the width is shl by zero, not zero (or UB).
    assert eval_int_binop("shl", 32, 5, 32) == 5
    assert eval_int_binop("shl", 32, 5, 33) == 10
    assert eval_int_binop("lshr", 8, -1, 8) == -1
    assert eval_int_binop("ashr", 16, -4, 17) == -2
    assert fold_int_binop("shl", I32, 5, 32) == 5
    assert fold_int_binop("shl", I16, 1, 100) == 16  # 100 % 16 == 4


# ----- float constants -----------------------------------------------------
#
# A ``float`` constant holds a single, whoever builds it (the frontend,
# the IR parser or the folder), so its printed text is the value
# execution computes.


def test_float_constant_fold_is_a_single():
    text = print_module(compile_c("float g(void) { return 0.1f + 0.2f; }"))
    assert "ret float 0.30000001192092896" in text
    value, _ = run_function(parse_module(text), "g")
    assert value == 0.30000001192092896


def test_float_literal_prints_as_its_single():
    text = print_module(compile_c("float f(float a) { return a + 0.2f; }"))
    assert "fadd float %a, 0.20000000298023224" in text
    assert print_module(parse_module(text)) == text


@pytest.mark.parametrize("opcode", ["fadd", "fsub", "fmul"])
def test_float_fold_matches_execution(opcode):
    text = f"""
define float @f() {{
entry:
  %r = {opcode} float 0.1, 0.2
  ret float %r
}}
"""
    executed, _ = run_function(parse_module(text), "f")
    module = parse_module(text)
    assert fold_constants(module.get_function("f")) == 1
    assert f"ret float {executed!r}" in print_module(module)
