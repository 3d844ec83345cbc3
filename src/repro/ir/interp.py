"""Reference interpreter for the IR.

Executes functions over a byte-addressed memory with the same data
layout the compiler assumes.  It is the semantic oracle of the project:
every transform is validated by running the original and transformed
function on identical inputs and comparing

* the returned value,
* the trace of external (declared) calls and their arguments,
* the final contents of globals and caller-provided buffers.

It also counts dynamically executed instructions, which serves as the
performance proxy for the Section V-D experiment.

Evaluation semantics are defined once, here, as tables of plain
functions keyed by opcode or predicate: :data:`INT_BINOP_IMPLS`,
:data:`FLOAT_BINOP_IMPLS`, :data:`ICMP_IMPLS`, :data:`FCMP_IMPLS`,
:data:`CAST_IMPLS`, and the per-type load/store codec
:func:`value_codec`.  :class:`Machine` dispatches through them, the
compiling evaluator (:mod:`repro.ir.compile_eval`) binds one entry per
instruction (through :func:`int_binop_impl`, :func:`float_binop_impl`
and :func:`cast_impl_at`, the same entries with the width bound),
:mod:`repro.transforms.constfold` folds with them, and the frontend
folds global initializers with :func:`eval_binop` and
:func:`eval_cast`, so all four agree bit for bit.

Integer semantics (the contract every transform must preserve):

* All integer values are stored in signed two's-complement form of the
  operation's bit width; add/sub/mul/shl wrap silently.  The one
  exception is ``i1``, held as 0/1: its signed readers (``sext``,
  ``sitofp`` and the signed ``icmp`` predicates) read ``true`` as -1,
  through the ``i1`` entries :func:`compare_impl` and :func:`cast_impl`
  select, so no table entry branches on the width.
* ``sdiv``/``srem`` truncate toward zero.  The INT_MIN // -1 overflow
  case *wraps* (result INT_MIN, remainder 0) rather than trapping,
  matching the wrap-everything policy above.
* Division or remainder by zero traps (:class:`TrapError`).
* Shift amounts are taken modulo the bit width
  (:data:`SHIFT_AMOUNT_MODULO_BITS`), so out-of-range amounts are
  well-defined and legal IR -- the difftest fuzzer generates them
  deliberately.
"""

from __future__ import annotations

import math
import operator
import struct
import zlib
from functools import cache, partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .instructions import (
    Alloca,
    BinaryOp,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Select,
    Store,
)
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    DataLayout,
    DEFAULT_LAYOUT,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    _F32_PACK,
    _F32_UNPACK,
    round_float,
)
from .values import (
    Argument,
    ConstantAggregate,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantZero,
    GlobalVariable,
    UndefValue,
    Value,
)


class TrapError(Exception):
    """Runtime fault: bad memory access, division by zero, etc."""


class StepLimitExceeded(TrapError):
    """The configured dynamic instruction budget was exhausted."""


class MemoryLimitExceeded(TrapError):
    """An allocation would grow memory past :data:`MEMORY_LIMIT`."""


#: ShiftSemantics: ``shl``/``lshr``/``ashr`` amounts are reduced modulo
#: the operand bit width.  An out-of-range constant amount is therefore
#: verifier-legal; both the interpreter and the constant folder apply
#: the same reduction (see :func:`eval_int_binop`).
SHIFT_AMOUNT_MODULO_BITS = True

#: ``sdiv INT_MIN, -1`` (and the matching ``srem``) wraps instead of
#: trapping; only division by zero traps.
INT_MIN_DIV_WRAPS = True

#: The most bytes one machine's memory may hold: globals, allocas and
#: caller buffers together.  An allocation past it raises
#: :class:`MemoryLimitExceeded` on every backend, so no single IR input
#: can make an evaluating process allocate without bound.
MEMORY_LIMIT = 64 << 20


def _wrap_signed(value: int, bits: int) -> int:
    half = 1 << (bits - 1)
    if bits > 1 and -half <= value < half:
        return value  # already in range: the common case, no masking
    value &= (half << 1) - 1
    if bits > 1 and value >= half:
        value -= half << 1
    return value


def _as_unsigned(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


#: The integer opcodes whose result is Python's own operation on the
#: operands, wrapped to the width.
_WRAPPING_INT_OPS: Dict[str, Callable[[int, int], int]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}


def _wrapping(
    raw: Callable[[int, int], int]
) -> Callable[[int, int, int], int]:
    def impl(bits: int, a: int, b: int) -> int:
        return _wrap_signed(raw(a, b), bits)

    return impl


def _int_sdiv(bits: int, a: int, b: int) -> int:
    sa = _wrap_signed(a, bits)
    sb = _wrap_signed(b, bits)
    if sb == 0:
        raise TrapError("sdiv by zero")
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return _wrap_signed(q, bits)  # INT_MIN // -1 wraps to INT_MIN


def _int_udiv(bits: int, a: int, b: int) -> int:
    ub = _as_unsigned(b, bits)
    if ub == 0:
        raise TrapError("udiv by zero")
    return _wrap_signed(_as_unsigned(a, bits) // ub, bits)


def _int_srem(bits: int, a: int, b: int) -> int:
    sa = _wrap_signed(a, bits)
    sb = _wrap_signed(b, bits)
    if sb == 0:
        raise TrapError("srem by zero")
    r = abs(sa) % abs(sb)
    return _wrap_signed(-r if sa < 0 else r, bits)


def _int_urem(bits: int, a: int, b: int) -> int:
    ub = _as_unsigned(b, bits)
    if ub == 0:
        raise TrapError("urem by zero")
    return _wrap_signed(_as_unsigned(a, bits) % ub, bits)


def _int_shl(bits: int, a: int, b: int) -> int:
    # The amount reduces from the *unsigned* form: widths need not be
    # powers of two, so ``b % bits`` alone would disagree for negatives.
    return _wrap_signed(a << (_as_unsigned(b, bits) % bits), bits)


def _int_lshr(bits: int, a: int, b: int) -> int:
    return _wrap_signed(
        _as_unsigned(a, bits) >> (_as_unsigned(b, bits) % bits), bits
    )


def _int_ashr(bits: int, a: int, b: int) -> int:
    return _wrap_signed(
        _wrap_signed(a, bits) >> (_as_unsigned(b, bits) % bits), bits
    )


#: One implementation per integer opcode, each ``impl(bits, a, b)``.
#: Callers that execute the same instruction repeatedly (the compiling
#: evaluator) pre-bind the entry instead of re-dispatching on the
#: opcode string every time.
INT_BINOP_IMPLS: Dict[str, Callable[[int, int, int], int]] = {
    **{opcode: _wrapping(raw) for opcode, raw in _WRAPPING_INT_OPS.items()},
    "sdiv": _int_sdiv,
    "udiv": _int_udiv,
    "srem": _int_srem,
    "urem": _int_urem,
    "shl": _int_shl,
    "lshr": _int_lshr,
    "ashr": _int_ashr,
}


def _wrapping_at(raw: Callable, bits: int) -> Callable:
    """``lambda *args: _wrap_signed(raw(*args), bits)`` for one or two
    arguments, with :func:`_wrap_signed`'s in-range case inlined."""
    half = 1 << (bits - 1)
    low = -half if bits > 1 else half  # i1 always masks
    if raw is int:

        def wrap_one(value: object) -> int:
            value = int(value)
            if low <= value < half:
                return value
            return _wrap_signed(value, bits)

        return wrap_one

    def wrap_two(a: int, b: int) -> int:
        value = raw(a, b)
        if low <= value < half:
            return value
        return _wrap_signed(value, bits)

    return wrap_two


@cache
def int_binop_impl(
    opcode: str, bits: int
) -> Optional[Callable[[int, int], int]]:
    """``INT_BINOP_IMPLS[opcode]`` with ``bits`` bound, as ``impl(a,
    b)`` (``None`` for an unknown opcode).

    For callers that execute one instruction many times (the compiling
    evaluator): a wrapping opcode becomes one call that wraps inline.
    """
    raw = _WRAPPING_INT_OPS.get(opcode)
    if raw is not None:
        return _wrapping_at(raw, bits)
    impl = INT_BINOP_IMPLS.get(opcode)
    return None if impl is None else partial(impl, bits)


def eval_int_binop(opcode: str, bits: int, a: int, b: int) -> int:
    """Evaluate one integer binary op at ``bits`` width.

    The shared evaluator behind :func:`eval_binop`, the compiling
    evaluator and the constant folder, so folded constants agree with
    executed results bit for bit.  Operands may be in signed or
    unsigned form; the result is wrapped to signed form.  Raises
    :class:`TrapError` for division/remainder by zero.
    """
    impl = INT_BINOP_IMPLS.get(opcode)
    if impl is None:
        raise TrapError(f"bad int opcode {opcode}")
    return impl(bits, int(a), int(b))


#: The float opcodes whose result is Python's own operation on the
#: operands, rounded to the width.
_ROUNDING_FLOAT_OPS: Dict[str, Callable[[float, float], float]] = {
    "fadd": operator.add,
    "fsub": operator.sub,
    "fmul": operator.mul,
}


def _rounding(
    raw: Callable[[float, float], float]
) -> Callable[[int, float, float], float]:
    def impl(bits: int, a: float, b: float) -> float:
        return round_float(raw(a, b), bits)

    return impl


def _float_div(bits: int, a: float, b: float) -> float:
    if b == 0.0:
        # IEEE 754: a nonzero over a zero is an infinity signed by both
        # operands (1.0 / -0.0 is -inf); 0/0 and NaN/0 are NaN.
        result = (
            math.copysign(math.inf, a) * math.copysign(1.0, b)
            if a == a and a != 0.0
            else math.nan
        )
    else:
        result = a / b
    return round_float(result, bits)


def _float_rem(bits: int, a: float, b: float) -> float:
    return round_float(math.fmod(a, b) if b != 0.0 else float("nan"), bits)


#: One implementation per float opcode, each ``impl(bits, a, b)``.
FLOAT_BINOP_IMPLS: Dict[str, Callable[[int, float, float], float]] = {
    **{opcode: _rounding(raw) for opcode, raw in _ROUNDING_FLOAT_OPS.items()},
    "fdiv": _float_div,
    "frem": _float_rem,
}


@cache
def float_binop_impl(
    opcode: str, bits: int
) -> Optional[Callable[[float, float], float]]:
    """``FLOAT_BINOP_IMPLS[opcode]`` with ``bits`` bound, as ``impl(a,
    b)`` (``None`` for an unknown opcode); see :func:`int_binop_impl`.

    A double keeps Python's result (:func:`round_float` at 64 bits is
    the identity), so its rounding opcodes are the bare operation.
    """
    raw = _ROUNDING_FLOAT_OPS.get(opcode)
    if raw is None:
        impl = FLOAT_BINOP_IMPLS.get(opcode)
        return None if impl is None else partial(impl, bits)
    if bits == 64:
        return raw

    def rounded(a: float, b: float) -> float:
        value = raw(a, b)
        try:
            return _F32_UNPACK(_F32_PACK(value))[0]  # round_float at 32
        except (OverflowError, ValueError):
            return round_float(value, 32)

    return rounded


def eval_binop(opcode: str, ty: Type, a: object, b: object) -> object:
    """Evaluate one binary op of integer or float type ``ty``.

    The shared evaluator behind :class:`Machine` and the frontend's
    global-initializer fold, so a folded initializer agrees with
    executed code.  Raises :class:`TrapError` for a bad opcode or a
    division/remainder by zero.
    """
    if isinstance(ty, IntType):
        return eval_int_binop(opcode, ty.bits, int(a), int(b))
    if isinstance(ty, FloatType):
        impl = FLOAT_BINOP_IMPLS.get(opcode)
        if impl is None:
            raise TrapError(f"bad float opcode {opcode}")
        return impl(ty.bits, float(a), float(b))
    raise TrapError(f"binary op on {ty}")


def _icmp_eq(bits: int, a: int, b: int) -> int:
    return 1 if a == b else 0


def _icmp_ne(bits: int, a: int, b: int) -> int:
    return 1 if a != b else 0


def _icmp_slt(bits: int, a: int, b: int) -> int:
    return 1 if a < b else 0


def _icmp_sle(bits: int, a: int, b: int) -> int:
    return 1 if a <= b else 0


def _icmp_sgt(bits: int, a: int, b: int) -> int:
    return 1 if a > b else 0


def _icmp_sge(bits: int, a: int, b: int) -> int:
    return 1 if a >= b else 0


def _icmp_ult(bits: int, a: int, b: int) -> int:
    mask = (1 << bits) - 1
    return 1 if a & mask < b & mask else 0


def _icmp_ule(bits: int, a: int, b: int) -> int:
    mask = (1 << bits) - 1
    return 1 if a & mask <= b & mask else 0


def _icmp_ugt(bits: int, a: int, b: int) -> int:
    mask = (1 << bits) - 1
    return 1 if a & mask > b & mask else 0


def _icmp_uge(bits: int, a: int, b: int) -> int:
    mask = (1 << bits) - 1
    return 1 if a & mask >= b & mask else 0


#: One implementation per icmp predicate, each ``impl(bits, a, b)``
#: returning 0 or 1.  Operands are in signed form (every producer
#: wraps), so the signed predicates compare them directly and the
#: unsigned ones compare the low ``bits`` bits.
ICMP_IMPLS: Dict[str, Callable[[int, int, int], int]] = {
    "eq": _icmp_eq,
    "ne": _icmp_ne,
    "slt": _icmp_slt,
    "sle": _icmp_sle,
    "sgt": _icmp_sgt,
    "sge": _icmp_sge,
    "ult": _icmp_ult,
    "ule": _icmp_ule,
    "ugt": _icmp_ugt,
    "uge": _icmp_uge,
}


def _fcmp_oeq(bits: int, a: float, b: float) -> int:
    return 1 if float(a) == float(b) else 0


def _fcmp_one(bits: int, a: float, b: float) -> int:
    a, b = float(a), float(b)
    return 1 if a == a and b == b and a != b else 0


def _fcmp_olt(bits: int, a: float, b: float) -> int:
    return 1 if float(a) < float(b) else 0


def _fcmp_ole(bits: int, a: float, b: float) -> int:
    return 1 if float(a) <= float(b) else 0


def _fcmp_ogt(bits: int, a: float, b: float) -> int:
    return 1 if float(a) > float(b) else 0


def _fcmp_oge(bits: int, a: float, b: float) -> int:
    return 1 if float(a) >= float(b) else 0


def _fcmp_ord(bits: int, a: float, b: float) -> int:
    a, b = float(a), float(b)
    return 1 if a == a and b == b else 0


def _fcmp_uno(bits: int, a: float, b: float) -> int:
    a, b = float(a), float(b)
    return 1 if a != a or b != b else 0


#: One implementation per fcmp predicate, each ``impl(bits, a, b)``
#: returning 0 or 1.  Every ``o*`` predicate is false when either
#: operand is NaN (Python's ``<``/``==`` already are; ``one`` tests it).
FCMP_IMPLS: Dict[str, Callable[[int, float, float], int]] = {
    "oeq": _fcmp_oeq,
    "one": _fcmp_one,
    "olt": _fcmp_olt,
    "ole": _fcmp_ole,
    "ogt": _fcmp_ogt,
    "oge": _fcmp_oge,
    "ord": _fcmp_ord,
    "uno": _fcmp_uno,
}


#: :data:`ICMP_IMPLS` for ``i1`` operands, held as 0/1 but read as
#: 0/-1 by the signed predicates: each of those is its mirror image.
I1_ICMP_IMPLS: Dict[str, Callable[[int, int, int], int]] = {
    **ICMP_IMPLS,
    "slt": _icmp_sgt,
    "sle": _icmp_sge,
    "sgt": _icmp_slt,
    "sge": _icmp_sle,
}


def compare_impl(
    inst: Instruction,
) -> Tuple[Callable[[int, object, object], int], int]:
    """The table entry an ``icmp``/``fcmp`` executes, and its ``bits``.

    Pointer operands compare as 64-bit integers; ``i1`` operands use
    :data:`I1_ICMP_IMPLS`.
    """
    ty = inst._operands[0].type
    bits = ty.bits if isinstance(ty, (IntType, FloatType)) else 64
    if not isinstance(inst, ICmp):
        return FCMP_IMPLS[inst.predicate], bits
    return (I1_ICMP_IMPLS if bits == 1 else ICMP_IMPLS)[inst.predicate], bits


def _cast_wrap(src: Type, dst: Type, value: object) -> int:
    return _wrap_signed(int(value), dst.bits)


def _cast_zext(src: Type, dst: Type, value: object) -> int:
    return _wrap_signed(_as_unsigned(int(value), src.bits), dst.bits)


def _cast_bitcast(src: Type, dst: Type, value: object) -> object:
    if isinstance(src, PointerType) and isinstance(dst, PointerType):
        return value
    return _value_of(_bits_of(value, src), dst)


def _cast_inttoptr(src: Type, dst: Type, value: object) -> int:
    return _as_unsigned(int(value), 64)


def _cast_sitofp(src: Type, dst: Type, value: object) -> float:
    return round_float(float(int(value)), dst.bits)


def _cast_uitofp(src: Type, dst: Type, value: object) -> float:
    return round_float(float(_as_unsigned(int(value), src.bits)), dst.bits)


def _cast_fptoi(src: Type, dst: Type, value: object) -> int:
    try:
        result = int(float(value))
    except (OverflowError, ValueError):
        result = 0  # NaN and infinities
    return _wrap_signed(result, dst.bits)


def _cast_fpext(src: Type, dst: Type, value: object) -> float:
    return float(value)


def _cast_fptrunc(src: Type, dst: Type, value: object) -> float:
    return round_float(float(value), dst.bits)


#: One implementation per cast opcode, each ``impl(src, dst, value)``
#: over the operand's and the result's types.
CAST_IMPLS: Dict[str, Callable[[Type, Type, object], object]] = {
    "trunc": _cast_wrap,
    "zext": _cast_zext,
    "sext": _cast_wrap,
    "bitcast": _cast_bitcast,
    "ptrtoint": _cast_wrap,
    "inttoptr": _cast_inttoptr,
    "sitofp": _cast_sitofp,
    "uitofp": _cast_uitofp,
    "fptosi": _cast_fptoi,
    "fptoui": _cast_fptoi,
    "fpext": _cast_fpext,
    "fptrunc": _cast_fptrunc,
}


def _cast_sext_i1(src: Type, dst: Type, value: object) -> int:
    return _wrap_signed(-int(value), dst.bits)


def _cast_sitofp_i1(src: Type, dst: Type, value: object) -> float:
    return float(-int(value))


#: :data:`CAST_IMPLS` for an ``i1`` source, held as 0/1 but read as
#: 0/-1 by the signed casts.
I1_CAST_IMPLS: Dict[str, Callable[[Type, Type, object], object]] = {
    **CAST_IMPLS,
    "sext": _cast_sext_i1,
    "sitofp": _cast_sitofp_i1,
}


def cast_impl(
    opcode: str, src: Type
) -> Optional[Callable[[Type, Type, object], object]]:
    """The table entry a cast from ``src`` executes (``None`` for an
    unknown opcode); an ``i1`` source uses :data:`I1_CAST_IMPLS`."""
    i1 = isinstance(src, IntType) and src.bits == 1
    return (I1_CAST_IMPLS if i1 else CAST_IMPLS).get(opcode)


@cache
def cast_impl_at(
    opcode: str, src: Type, dst: Type
) -> Optional[Callable[[object], object]]:
    """:func:`cast_impl` with both types bound, as ``impl(value)``
    (``None`` for an unknown opcode); see :func:`int_binop_impl`."""
    impl = cast_impl(opcode, src)
    if impl is _cast_wrap:
        return _wrapping_at(int, dst.bits)
    return None if impl is None else partial(impl, src, dst)


def eval_cast(opcode: str, value: object, src: Type, dst: Type) -> object:
    """Evaluate one cast of ``value`` from ``src`` to ``dst``.

    Shared, like :func:`eval_binop`, by :class:`Machine` and the
    frontend's global-initializer fold.  Raises :class:`TrapError`
    for an unknown opcode.
    """
    impl = cast_impl(opcode, src)
    if impl is None:
        raise TrapError(f"bad cast {opcode}")
    return impl(src, dst, value)


def _bits_of(value: object, ty: Type) -> int:
    """The raw bits of ``value`` read as ``ty``."""
    if isinstance(ty, IntType):
        return _as_unsigned(int(value), ty.bits)
    if isinstance(ty, FloatType):
        fmt = "<f" if ty.bits == 32 else "<d"
        return int.from_bytes(struct.pack(fmt, float(value)), "little")
    if isinstance(ty, PointerType):
        return int(value)
    raise TrapError(f"bitcast of {ty}")


def _value_of(raw: int, ty: Type) -> object:
    """The value of type ``ty`` whose raw bits are ``raw``."""
    if isinstance(ty, IntType):
        return _wrap_signed(raw, ty.bits)
    if isinstance(ty, FloatType):
        size = ty.bits // 8
        fmt = "<f" if ty.bits == 32 else "<d"
        return struct.unpack(fmt, raw.to_bytes(size, "little"))[0]
    if isinstance(ty, PointerType):
        return raw
    raise TrapError(f"bitcast to {ty}")


class ValueCodec(NamedTuple):
    """How one type's values sit in memory: ``size`` little-endian
    bytes, read by ``load(memory, addr)`` and written by
    ``store(memory, addr, value)``.

    Both accessors check bounds themselves and raise the one
    out-of-bounds :class:`TrapError` text :meth:`Machine.read_bytes`
    raises, so an access is one call into ``struct``'s
    ``unpack_from``/``pack_into`` with no intermediate ``bytes``.  A
    type with no scalar encoding gets a codec that raises
    :class:`TrapError` (a load after its bounds check, a store before).
    """

    size: int
    load: Callable[[bytearray, int], object]
    store: Callable[[bytearray, int, object], None]


_CODECS: Dict[Tuple[Type, int], ValueCodec] = {}

#: ``struct`` format letters of the integer sizes it packs directly.
_INT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def value_codec(ty: Type, layout: DataLayout) -> ValueCodec:
    """The load/store codec of ``ty`` under ``layout`` (memoized)."""
    size = layout.size_of(ty)
    codec = _CODECS.get((ty, size))
    if codec is None:
        codec = _CODECS[(ty, size)] = _build_codec(ty, size)
    return codec


def _out_of_bounds(addr: int, size: int) -> TrapError:
    return TrapError(f"out-of-bounds access at {addr} size {size}")


def _build_codec(ty: Type, size: int) -> ValueCodec:
    letter = _INT_FORMATS.get(size)
    if isinstance(ty, FloatType):
        fmt = struct.Struct("<f" if ty.bits == 32 else "<d")
        return ValueCodec(
            size,
            _loader(size, fmt.unpack_from),
            _storer(size, fmt.pack_into),
        )
    if isinstance(ty, IntType):
        mask = (1 << (size * 8)) - 1
        if letter is None:  # a size ``struct`` has no letter for (i24, ...)
            return ValueCodec(
                size,
                _bytes_loader(size, ty.bits),
                _bytes_storer(size, mask),
            )
        full = ty.bits == size * 8
        # A type that fills its bytes reads signed, in C; a narrower
        # one (``i1``) reads unsigned and wraps.  Stores mask to the
        # unsigned form.
        unpack_from = struct.Struct(
            "<" + (letter if full else letter.upper())
        ).unpack_from
        return ValueCodec(
            size,
            _loader(size, unpack_from, None if full else ty.bits),
            _storer(size, struct.Struct("<" + letter.upper()).pack_into, mask),
        )
    if isinstance(ty, PointerType):
        load = (
            _bytes_loader(size, None)
            if letter is None
            else _loader(size, struct.Struct("<" + letter.upper()).unpack_from)
        )
        return ValueCodec(size, load, _bytes_storer(size, None))

    def cannot_load(memory: bytearray, addr: int) -> object:
        if addr < 64 or addr + size > len(memory):
            raise _out_of_bounds(addr, size)
        raise TrapError(f"cannot load type {ty}")

    def cannot_store(memory: bytearray, addr: int, value: object) -> None:
        raise TrapError(f"cannot store type {ty}")

    return ValueCodec(size, cannot_load, cannot_store)


# The accessors below share one bounds rule: addresses 0..63 form the
# trap page (null and near-null), and nothing may run past the end of
# memory.  The lower bound also keeps a negative address from indexing
# ``struct`` from the buffer's end; ``struct`` itself enforces the upper
# one (``struct.error`` past the end, ``IndexError``/``OverflowError``
# for an address past ``sys.maxsize``), and only a failed access pays
# for telling which bound it broke.


def _loader(size: int, unpack_from, wrap_bits: Optional[int] = None):
    def load(memory: bytearray, addr: int) -> object:
        if addr < 64:
            raise _out_of_bounds(addr, size)
        try:
            return unpack_from(memory, addr)[0]
        except (struct.error, IndexError, OverflowError):
            if addr + size > len(memory):
                raise _out_of_bounds(addr, size) from None
            raise

    if wrap_bits is None:
        return load

    def load_wrapped(memory: bytearray, addr: int) -> object:
        return _wrap_signed(load(memory, addr), wrap_bits)

    return load_wrapped


def _storer(size: int, pack_into, mask: Optional[int] = None):
    def store(memory: bytearray, addr: int, value: object) -> None:
        if addr < 64:
            raise _out_of_bounds(addr, size)
        try:
            pack_into(
                memory, addr, value if mask is None else int(value) & mask
            )
        except (struct.error, IndexError, OverflowError):
            if addr + size > len(memory):
                raise _out_of_bounds(addr, size) from None
            raise

    return store


def _bytes_loader(size: int, wrap_bits: Optional[int]):
    def load(memory: bytearray, addr: int) -> object:
        if addr < 64 or addr + size > len(memory):
            raise _out_of_bounds(addr, size)
        raw = int.from_bytes(memory[addr : addr + size], "little")
        return raw if wrap_bits is None else _wrap_signed(raw, wrap_bits)

    return load


def _bytes_storer(size: int, mask: Optional[int]):
    """A store through ``int.to_bytes``; unmasked (pointers), a value
    outside ``[0, 2**(8*size))`` raises ``OverflowError``."""

    def store(memory: bytearray, addr: int, value: object) -> None:
        raw = int(value) if mask is None else int(value) & mask
        data = raw.to_bytes(size, "little")
        if addr < 64 or addr + size > len(memory):
            raise _out_of_bounds(addr, size)
        memory[addr : addr + size] = data

    return store


ExternHandler = Callable[["Machine", Sequence[object]], object]


def constant_value(value: Value, machine: "Machine") -> object:
    """Evaluate a non-SSA operand: constant, global or function address.

    The single operand-materialization helper shared by the tree-walking
    interpreter (:meth:`Machine._eval`) and the compiling evaluator
    (:mod:`repro.ir.compile_eval`), which resolves these once per
    machine instead of once per use.
    """
    if isinstance(value, ConstantInt):
        return value.value
    if isinstance(value, ConstantFloat):
        return value.value
    if isinstance(value, (ConstantNull, UndefValue)):
        return 0
    if isinstance(value, Function):
        return value._interp_address  # type: ignore[attr-defined]
    if isinstance(value, GlobalVariable):
        return machine.global_addresses[value.name]
    raise TrapError(f"cannot evaluate {value!r}")


#: Sentinel for "this phi has no incoming value for that predecessor"
#: inside a cached phi row (``None`` would be ambiguous with a missing
#: row).
_NO_INCOMING = object()


class _BlockPlan:
    """Per-block execution plan: everything ``Machine.call`` would
    otherwise re-derive on every entry of the block.

    ``phi_rows`` caches, per predecessor, the tuple of incoming values
    aligned with ``phis`` (built lazily the first time the edge is
    taken).
    """

    __slots__ = ("key", "phis", "phi_rows", "body")

    def __init__(self, fn: Function, block: BasicBlock) -> None:
        self.key = (fn.name, block.name)
        self.phis = tuple(block.phis())
        self.phi_rows: Dict[Optional[int], Tuple[object, ...]] = {}
        self.body = tuple(block.instructions[block.first_non_phi_index():])


def _build_function_plan(fn: Function) -> Dict[int, _BlockPlan]:
    return {id(block): _BlockPlan(fn, block) for block in fn.blocks}


class Machine:
    """Execution state: memory, globals, extern handlers, counters."""

    def __init__(
        self,
        module: Module,
        layout: DataLayout = DEFAULT_LAYOUT,
        step_limit: int = 5_000_000,
    ) -> None:
        self.module = module
        self.layout = layout
        self.step_limit = step_limit
        self.steps = 0
        self.memory = bytearray(64)  # address 0..63 reserved (null page)
        self.extern_handlers: Dict[str, ExternHandler] = {}
        self.extern_trace: List[Tuple[str, Tuple[object, ...]]] = []
        #: (function name, block name) -> number of times entered.
        self.block_counts: Dict[Tuple[str, str], int] = {}
        #: Optional per-executed-instruction callback (e.g. an i-cache
        #: simulator's fetch hook).
        self.instruction_hook = None
        self.global_addresses: Dict[str, int] = {}
        self._function_addresses: Dict[int, Function] = {}
        #: Per-function execution plans (phi/body scans hoisted out of
        #: the per-call loop).  Keyed by function identity: machines are
        #: built per execution, so a module mutated *after* machine
        #: construction needs a fresh machine -- which every caller in
        #: the repository already creates.
        self._plans: Dict[int, Dict[int, _BlockPlan]] = {}
        self._allocate_globals()

    # ----- memory ----------------------------------------------------------

    def alloc(self, size: int, align: int = 16) -> int:
        """Bump-allocate ``size`` bytes, returning the address.

        Raises :class:`MemoryLimitExceeded` (and allocates nothing)
        when memory would grow past :data:`MEMORY_LIMIT`.
        """
        memory = self.memory
        addr = (len(memory) + align - 1) // align * align
        end = addr + max(size, 1)
        if end > MEMORY_LIMIT:
            raise MemoryLimitExceeded(
                f"memory limit exceeded: {size} bytes at {addr}, "
                f"limit {MEMORY_LIMIT}"
            )
        memory.extend(bytes(end - len(memory)))
        return addr

    def _check_range(self, addr: int, size: int) -> None:
        # Addresses 0..63 form the trap page (null and near-null).
        if addr < 64 or addr + size > len(self.memory):
            raise TrapError(f"out-of-bounds access at {addr} size {size}")

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Read raw bytes (bounds-checked)."""
        self._check_range(addr, size)
        return bytes(self.memory[addr : addr + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write raw bytes (bounds-checked)."""
        self._check_range(addr, len(data))
        self.memory[addr : addr + len(data)] = data

    def read_value(self, addr: int, ty: Type) -> object:
        """Read one typed value from memory (bounds-checked)."""
        return value_codec(ty, self.layout).load(self.memory, addr)

    def write_value(self, addr: int, ty: Type, value: object) -> None:
        """Write one typed value to memory (bounds-checked)."""
        value_codec(ty, self.layout).store(self.memory, addr, value)

    # ----- globals ----------------------------------------------------------

    def _allocate_globals(self) -> None:
        # Initializers never change after construction (passes only
        # *append* globals), so the initialized memory and its address
        # map are cached on the module and every later machine starts
        # from one copy of that image.  The key holds the layout and
        # each global with its name: an appended global, or one a
        # rollback removed and a retry re-added under the same name,
        # rebuilds the image.
        globals_ = self.module.globals
        cache_key = (
            id(self.layout),
            tuple(globals_),
            tuple([gv.name for gv in globals_]),
        )
        cached = getattr(self.module, "_interp_memory_image", None)
        if cached is not None and cached[0] == cache_key:
            self.memory = bytearray(cached[1])
            self.global_addresses = dict(cached[2])
        else:
            spans = []
            for gv in self.module.globals:
                size = self.layout.size_of(gv.value_type)
                addr = self.alloc(size, self.layout.align_of(gv.value_type))
                self.global_addresses[gv.name] = addr
                spans.append((gv.name, addr, size))
                if gv.initializer is not None:
                    self._write_initializer(
                        addr, gv.value_type, gv.initializer
                    )
            cached = self.module._interp_memory_image = (
                cache_key, bytes(self.memory), dict(self.global_addresses),
                tuple(spans),
            )
        #: ``(name, address, size)`` of every global, shared by every
        #: machine built from one memory image (so callers may key
        #: per-image work on its identity).
        self.global_spans: Tuple[Tuple[str, int, int], ...] = cached[3]
        next_fn_addr = 8
        for fn in self.module.functions:
            self._function_addresses[next_fn_addr] = fn
            fn._interp_address = next_fn_addr  # type: ignore[attr-defined]
            next_fn_addr += 8

    def _write_initializer(self, addr: int, ty: Type, init) -> None:
        if isinstance(init, (ConstantZero, UndefValue)):
            return  # memory is zeroed already
        if isinstance(init, ConstantInt):
            self.write_value(addr, ty, init.value)
            return
        if isinstance(init, ConstantFloat):
            self.write_value(addr, ty, init.value)
            return
        if isinstance(init, ConstantNull):
            return
        if isinstance(init, ConstantAggregate):
            if isinstance(ty, ArrayType):
                elem_size = self.layout.size_of(ty.element)
                for i, element in enumerate(init.elements):
                    self._write_initializer(addr + i * elem_size, ty.element, element)
                return
            if isinstance(ty, StructType):
                for i, element in enumerate(init.elements):
                    offset = self.layout.field_offset(ty, i)
                    self._write_initializer(addr + offset, ty.fields[i], element)
                return
        raise TrapError(f"unsupported initializer for {ty}")

    def global_contents(self) -> Dict[str, bytes]:
        """Snapshot of every global's bytes (for differential tests)."""
        memory = self.memory
        return {
            name: bytes(memory[addr : addr + size])
            for name, addr, size in self.global_spans
        }

    # ----- externs -----------------------------------------------------------

    def register_extern(self, name: str, handler: ExternHandler) -> None:
        """Install a Python handler for a declared function."""
        self.extern_handlers[name] = handler

    def _call_extern(self, fn: Function, args: Sequence[object]) -> object:
        self.extern_trace.append((fn.name, tuple(args)))
        handler = self.extern_handlers.get(fn.name)
        if handler is not None:
            return handler(self, args)
        ret = fn.return_type
        if ret.is_void:
            return None
        # Deterministic opaque default: a value derived from the inputs.
        # crc32 (not ``hash``) so results are stable across processes and
        # PYTHONHASHSEED values -- difftest replays depend on this.
        seed = zlib.crc32(repr((fn.name, tuple(args))).encode("utf-8")) & 0x7FFFFFFF
        if isinstance(ret, IntType):
            return _wrap_signed(seed, ret.bits)
        if isinstance(ret, FloatType):
            return round_float(float(seed % 1000), ret.bits)
        if isinstance(ret, PointerType):
            return 0
        raise TrapError(f"extern {fn.name} returns unsupported type {ret}")

    # ----- execution ----------------------------------------------------------

    def call(self, fn: Function, args: Sequence[object]) -> object:
        """Execute ``fn`` with Python-level argument values."""
        if fn.is_declaration:
            return self._call_extern(fn, args)
        if len(args) != len(fn.arguments):
            raise TrapError(
                f"@{fn.name} expects {len(fn.arguments)} args, got {len(args)}"
            )
        env: Dict[int, object] = {}
        for formal, actual in zip(fn.arguments, args):
            env[id(formal)] = actual

        plan = self._plans.get(id(fn))
        if plan is None:
            plan = self._plans[id(fn)] = _build_function_plan(fn)
        block_counts = self.block_counts

        # ``self._tick`` is inlined below: a method call per executed
        # instruction is measurable on campaign workloads.  ``steps``
        # stays on ``self`` (never cached locally) because ``_execute``
        # recurses into ``call`` for call instructions.
        evaluate = self._eval
        execute = self._execute
        step_limit = self.step_limit

        block = fn.entry
        prev_block: Optional[BasicBlock] = None
        while True:
            bp = plan[id(block)]
            key = bp.key
            block_counts[key] = block_counts.get(key, 0) + 1
            # Evaluate phis atomically with respect to each other.
            phis = bp.phis
            if phis:
                row_key = id(prev_block) if prev_block is not None else None
                row = bp.phi_rows.get(row_key)
                if row is None:
                    incomings = [phi.incoming_for(prev_block) for phi in phis]
                    row = tuple(
                        _NO_INCOMING if v is None else v for v in incomings
                    )
                    bp.phi_rows[row_key] = row
                phi_values = []
                for phi, incoming in zip(phis, row):
                    if incoming is _NO_INCOMING:
                        raise TrapError(
                            f"phi {phi.short_name()} has no incoming for "
                            f"%{prev_block.name if prev_block else '<entry>'}"
                        )
                    phi_values.append(evaluate(incoming, env))
                    self.steps += 1
                    if self.steps > step_limit:
                        raise StepLimitExceeded(
                            f"exceeded {step_limit} steps"
                        )
                    hook = self.instruction_hook
                    if hook is not None:
                        hook(phi)
                for phi, value in zip(phis, phi_values):
                    env[id(phi)] = value

            for inst in bp.body:
                self.steps += 1
                if self.steps > step_limit:
                    raise StepLimitExceeded(f"exceeded {step_limit} steps")
                hook = self.instruction_hook
                if hook is not None:
                    hook(inst)
                if inst.is_terminator:
                    opcode = inst.opcode
                    if opcode == "br":
                        if inst.is_conditional:
                            cond = evaluate(inst.condition, env)
                            target = inst.successors()[0 if cond else 1]
                        else:
                            target = inst.successors()[0]
                        prev_block = block
                        block = target
                        break
                    if opcode == "ret":
                        if inst.return_value is None:
                            return None
                        return evaluate(inst.return_value, env)
                    raise TrapError("executed unreachable")
                result = execute(inst, env)
                if not inst.type.is_void:
                    env[id(inst)] = result
            else:
                raise TrapError(f"block %{block.name} fell through")

    def _eval(self, value: Value, env: Dict[int, object]) -> object:
        # SSA operands first: they are the hot case in any loop body,
        # so probe the environment before any type test (constants are
        # never in ``env``, and defined SSA values never map to the
        # sentinel).
        found = env.get(id(value), _NO_INCOMING)
        if found is not _NO_INCOMING:
            return found
        if isinstance(value, (Instruction, Argument)):
            raise TrapError(f"use of undefined value {value.short_name()}")
        return constant_value(value, self)

    def _execute(self, inst: Instruction, env: Dict[int, object]) -> object:
        if isinstance(inst, BinaryOp):
            a = self._eval(inst._operands[0], env)
            b = self._eval(inst._operands[1], env)
            return eval_binop(inst.opcode, inst.type, a, b)
        if isinstance(inst, (ICmp, FCmp)):
            impl, bits = compare_impl(inst)
            a = self._eval(inst._operands[0], env)
            return impl(bits, a, self._eval(inst._operands[1], env))
        if isinstance(inst, Select):
            cond = self._eval(inst._operands[0], env)
            return self._eval(inst._operands[1 if cond else 2], env)
        if isinstance(inst, Cast):
            operand = inst._operands[0]
            return eval_cast(
                inst.opcode, self._eval(operand, env), operand.type, inst.type
            )
        if isinstance(inst, GetElementPtr):
            return self._gep(inst, env)
        if isinstance(inst, Load):
            addr = self._eval(inst.pointer, env)
            return self.read_value(addr, inst.type)
        if isinstance(inst, Store):
            value = self._eval(inst.value, env)
            addr = self._eval(inst.pointer, env)
            self.write_value(addr, inst.value.type, value)
            return None
        if isinstance(inst, Alloca):
            size = self.layout.size_of(inst.allocated_type)
            return self.alloc(size, self.layout.align_of(inst.allocated_type))
        if isinstance(inst, Call):
            callee = inst.callee
            if not isinstance(callee, Function):
                addr = self._eval(callee, env)
                callee = self._function_addresses.get(addr)
                if callee is None:
                    raise TrapError(f"indirect call to invalid address {addr}")
            args = [self._eval(a, env) for a in inst.args]
            return self.call(callee, args)
        raise TrapError(f"cannot execute {inst!r}")

    def _gep(self, inst: GetElementPtr, env: Dict[int, object]) -> int:
        addr = int(self._eval(inst.pointer, env))
        indices = inst.indices
        first = int(self._eval(indices[0], env))
        addr += first * self.layout.size_of(inst.source_type)
        ty = inst.source_type
        for idx in indices[1:]:
            index = int(self._eval(idx, env))
            if isinstance(ty, ArrayType):
                addr += index * self.layout.size_of(ty.element)
                ty = ty.element
            elif isinstance(ty, StructType):
                addr += self.layout.field_offset(ty, index)
                ty = ty.fields[index]
            else:
                raise TrapError(f"gep into {ty}")
        return addr


def run_function(
    module: Module,
    name: str,
    args: Sequence[object] = (),
    externs: Optional[Dict[str, ExternHandler]] = None,
    step_limit: int = 5_000_000,
    evaluator: str = "interp",
) -> Tuple[object, Machine]:
    """Convenience wrapper: build a machine, run ``@name``, return both.

    ``evaluator`` selects the backend: ``"interp"`` (this module's
    tree-walking reference machine) or ``"compiled"``
    (:mod:`repro.ir.compile_eval`'s closure-compiling machine).  Both
    satisfy the same semantics contract (``docs/architecture.md``).
    """
    from .compile_eval import make_machine  # compile_eval imports this module

    machine = make_machine(module, evaluator, step_limit=step_limit)
    for extern_name, handler in (externs or {}).items():
        machine.register_extern(extern_name, handler)
    fn = module.get_function(name)
    if fn is None:
        raise KeyError(f"no function @{name}")
    result = machine.call(fn, args)
    return result, machine
