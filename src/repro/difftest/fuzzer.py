"""Seeded generator of random-but-valid IR functions.

:class:`FunctionFuzzer` builds one fresh module per case index, always
containing a single ``@fuzz`` function of signature
``i32 (i32 %a, i32 %b, i32* %p)`` plus global arrays/scalars and opaque
extern declarations.  Generation is biased toward the shapes RoLAG can
roll -- unrolled store runs, extern call runs, reduction trees, joint
mixed-lane blocks -- so the oracle exercises the interesting paths of
the pipeline instead of fuzzing noise.

Generated functions are *valid* (the verifier accepts them) and
*terminating* (no back edges), but deliberately **not** trap-free: the
fuzzer plants division/remainder by possibly-zero values, stores
through near-null pointers behind data-dependent branches, and
out-of-range shift amounts, because trap behaviour and the
modulo-bit-width shift semantics are part of the contract the oracle
checks (see ``repro.ir.interp``).

Everything is derived from ``random.Random(seed, case index)`` state:
the same seed reproduces the same corpus on any machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ir.builder import IRBuilder
from ..ir.module import Module
from ..ir.types import ArrayType, FunctionType, I32, I64, IntType, PointerType
from ..ir.values import ConstantInt, GlobalVariable, Value, zero_constant_for
from ..ir.verifier import verify_module

#: Interesting i32 operand values (INT_MIN, -1, widths, off-by-ones).
I32_EDGES = (0, 1, -1, 2, 7, 31, 32, 33, 63, 64, 2**31 - 1, -(2**31))

#: Weighted opcode deck for scalar arithmetic.
_ARITH_DECK = (
    ["add"] * 4 + ["sub"] * 3 + ["mul"] * 2
    + ["xor"] * 2 + ["and"] * 2 + ["or"] * 2
    + ["shl", "lshr", "ashr", "sdiv", "srem", "udiv", "urem"]
)

_SHIFT_AMOUNTS = (0, 1, 3, 5, 31, 32, 33, 64, 100)

_ICMP_PREDS = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ugt")


@dataclass(frozen=True)
class FuzzConfig:
    """Tunables of the function generator."""

    #: i32 elements per global array and per caller buffer.
    array_len: int = 16
    #: Shape count per function (store runs, diamonds, ...).
    min_shapes: int = 2
    max_shapes: int = 5
    #: Plant trap hazards (maybe-zero divisors, near-null stores).
    allow_traps: bool = True
    #: Declare externs and generate call runs.
    allow_calls: bool = True
    #: Generate branchy shapes (diamonds, guarded hazards).
    allow_branches: bool = True


class FunctionFuzzer:
    """Reproducible source of difftest cases.

    >>> module, name = FunctionFuzzer(seed=0).build(17)
    """

    def __init__(self, seed: int, config: Optional[FuzzConfig] = None) -> None:
        self.seed = seed
        self.config = config or FuzzConfig()

    def build(self, index: int) -> Tuple[Module, str]:
        """Generate (and verify) the module for one case index."""
        rng = random.Random((self.seed * 1_000_003 + index) & 0xFFFFFFFF)
        module = _CaseBuilder(rng, self.config).build()
        verify_module(module)
        return module, "fuzz"


class _CaseBuilder:
    """Builds one module; single use."""

    def __init__(self, rng: random.Random, config: FuzzConfig) -> None:
        self.rng = rng
        self.config = config
        self.module = Module("difftest")
        array_ty = ArrayType(I32, config.array_len)
        self.arrays: List[GlobalVariable] = [
            self.module.add_global(
                f"g{i}", array_ty, zero_constant_for(array_ty)
            )
            for i in range(rng.randrange(1, 3))
        ]
        self.scalar = self.module.add_global(
            "s0", I32, ConstantInt(I32, rng.randrange(-50, 50))
        )
        self.externs = []
        if config.allow_calls:
            for i in range(rng.randrange(1, 3)):
                self.externs.append(
                    self.module.add_function(f"ext{i}", FunctionType(I32, [I32]))
                )
        self.fn = self.module.add_function(
            "fuzz",
            FunctionType(I32, [I32, I32, PointerType(I32)]),
            ["a", "b", "p"],
        )
        self.builder = IRBuilder(self.fn.add_block("entry"))
        #: i32 values usable as operands at the current insertion point.
        #: Only ever holds entry-path values (or merge phis), so every
        #: pool member dominates every later insertion point.
        self.pool: List[Value] = [self.fn.arguments[0], self.fn.arguments[1]]

    # ----- operand / arithmetic helpers ------------------------------------

    def _const(self) -> ConstantInt:
        rng = self.rng
        if rng.random() < 0.5:
            return ConstantInt(I32, rng.choice(I32_EDGES))
        return ConstantInt(I32, rng.randrange(-100, 100))

    def operand(self) -> Value:
        """A random i32 operand: pooled value or constant."""
        if self.rng.random() < 0.7:
            return self.rng.choice(self.pool)
        return self._const()

    def _safe_divisor(self, value: Value) -> Value:
        # (v & 7) | 1 is odd and nonzero: never traps.
        masked = self.builder.and_(value, ConstantInt(I32, 7))
        return self.builder.or_(masked, ConstantInt(I32, 1))

    def arith(self, record: bool = True) -> Value:
        """Emit one random binop at the insertion point."""
        rng = self.rng
        op = rng.choice(_ARITH_DECK)
        a = self.operand()
        b = self.operand()
        if op in ("sdiv", "udiv", "srem", "urem"):
            if not self.config.allow_traps or rng.random() < 0.6:
                b = self._safe_divisor(b)
            elif rng.random() < 0.5:
                # Maybe-zero divisor: traps on some argument vectors.
                b = self.builder.and_(b, ConstantInt(I32, 3))
        elif op in ("shl", "lshr", "ashr") and rng.random() < 0.5:
            # Deliberately include out-of-range constant amounts; the
            # documented semantics reduce them modulo the bit width.
            b = ConstantInt(I32, rng.choice(_SHIFT_AMOUNTS))
        value = self.builder.binop(op, a, b)
        if record:
            self.pool.append(value)
        return value

    def _array_slot(self, gv: GlobalVariable, index: int) -> Value:
        return self.builder.gep(
            gv.value_type,
            gv,
            [ConstantInt(I32, 0), ConstantInt(I32, index)],
        )

    def _buffer_slot(self, index: int) -> Value:
        return self.builder.gep(
            I32, self.fn.arguments[2], [ConstantInt(I32, index)]
        )

    def _slot(self, target, index: int) -> Value:
        if target is None:
            return self._buffer_slot(index)
        return self._array_slot(target, index)

    def _pick_target(self):
        """A store/load target: a global array, or None for the buffer."""
        if self.rng.random() < 0.35:
            return None
        return self.rng.choice(self.arrays)

    # ----- shapes ----------------------------------------------------------

    def shape_store_run(self) -> None:
        """An unrolled affine store run: ``t[base+k] = v + k*stride``."""
        rng = self.rng
        lanes = rng.randrange(3, 7)
        target = self._pick_target()
        base = rng.randrange(0, self.config.array_len - lanes + 1)
        value = self.arith() if rng.random() < 0.6 else self.operand()
        stride = rng.choice((0, 1, 2, 3, 5))
        for k in range(lanes):
            lane_value = value
            if stride and k:
                lane_value = self.builder.add(
                    value, ConstantInt(I32, k * stride)
                )
            self.builder.store(lane_value, self._slot(target, base + k))

    def shape_call_run(self) -> None:
        """A run of calls to one extern with affine arguments."""
        rng = self.rng
        if not self.externs:
            return self.shape_store_run()
        ext = rng.choice(self.externs)
        lanes = rng.randrange(3, 6)
        base = self.operand()
        acc = self.operand()
        for k in range(lanes):
            arg = self.builder.add(base, ConstantInt(I32, k))
            result = self.builder.call(ext, [arg])
            acc = self.builder.xor(acc, result)
        self.pool.append(acc)

    def shape_reduction(self) -> None:
        """An unrolled reduction tree over consecutive loads."""
        rng = self.rng
        width = rng.randrange(4, 9)
        target = self._pick_target()
        base = rng.randrange(0, self.config.array_len - width + 1)
        op = rng.choice(("add", "xor", "and", "or", "mul"))
        acc = self.builder.load(I32, self._slot(target, base))
        for k in range(1, width):
            element = self.builder.load(I32, self._slot(target, base + k))
            acc = self.builder.binop(op, acc, element)
        self.pool.append(acc)

    def shape_mixed_lanes(self) -> None:
        """Interleaved stores to two targets (joint-group bait)."""
        rng = self.rng
        lanes = rng.randrange(3, 6)
        target_a = self._pick_target()
        target_b = rng.choice(self.arrays)
        base_a = rng.randrange(0, self.config.array_len - lanes + 1)
        base_b = rng.randrange(0, self.config.array_len - lanes + 1)
        value = self.operand()
        for k in range(lanes):
            first = self.builder.add(value, ConstantInt(I32, k))
            second = self.builder.xor(value, ConstantInt(I32, k + 1))
            self.builder.store(first, self._slot(target_a, base_a + k))
            self.builder.store(second, self._slot(target_b, base_b + k))

    def shape_diamond(self) -> None:
        """A two-sided branch merged by phis (if-conversion bait)."""
        rng = self.rng
        cond = self.builder.icmp(
            rng.choice(_ICMP_PREDS), self.operand(), self.operand()
        )
        true_block = self.fn.add_block()
        false_block = self.fn.add_block()
        merge = self.fn.add_block()
        self.builder.cond_br(cond, true_block, false_block)

        # Branch bodies read only dominating (entry-path) values and do
        # not extend the pool; their results meet again in merge phis.
        self.builder.position_at_end(true_block)
        true_value = self.arith(record=False)
        self.builder.br(merge)
        self.builder.position_at_end(false_block)
        false_value = self.arith(record=False)
        self.builder.br(merge)

        self.builder.position_at_end(merge)
        phi = self.builder.phi(I32)
        phi.add_incoming(true_value, true_block)
        phi.add_incoming(false_value, false_block)
        self.pool.append(phi)

    def shape_scalar_update(self) -> None:
        """Read-modify-write of the global scalar."""
        op = self.rng.choice(("add", "xor", "sub", "or"))
        old = self.builder.load(I32, self.scalar)
        new = self.builder.binop(op, old, self.operand())
        self.builder.store(new, self.scalar)
        self.pool.append(new)

    def shape_width_mix(self) -> None:
        """Arithmetic at i64/i8 width with casts back to i32.

        Exercises the wrap-to-width contract between the constant
        folder and the interpreter at non-native widths.
        """
        rng = self.rng
        if rng.random() < 0.5:
            wide = self.builder.sext(self.operand(), I64)
            mixed = self.builder.binop(
                rng.choice(("add", "mul", "xor")),
                wide,
                ConstantInt(I64, rng.choice((1, -1, 2**40, -(2**35)))),
            )
            back = self.builder.trunc(mixed, I32)
        else:
            narrow_ty = IntType(8)
            narrow = self.builder.trunc(self.operand(), narrow_ty)
            mixed = self.builder.binop(
                rng.choice(("add", "mul", "shl")),
                narrow,
                ConstantInt(narrow_ty, rng.randrange(-128, 128)),
            )
            ext = self.builder.sext if rng.random() < 0.5 else self.builder.zext
            back = ext(mixed, I32)
        self.pool.append(back)

    def shape_trap_hazard(self) -> None:
        """A guarded near-null store: traps on some vectors only."""
        rng = self.rng
        if not (self.config.allow_traps and self.config.allow_branches):
            return self.shape_store_run()
        guard_value = self.operand()
        cond = self.builder.icmp(
            "slt", guard_value, ConstantInt(I32, rng.randrange(-20, 20))
        )
        hazard = self.fn.add_block()
        cont = self.fn.add_block()
        self.builder.cond_br(cond, hazard, cont)
        self.builder.position_at_end(hazard)
        # Addresses 0..63 form the interpreter's trap page; masking with
        # 63 keeps the fault deterministic and layout-independent.
        address = self.builder.and_(self.operand(), ConstantInt(I32, 63))
        pointer = self.builder.cast("inttoptr", address, PointerType(I32))
        self.builder.store(self.operand(), pointer)
        self.builder.br(cont)
        self.builder.position_at_end(cont)

    # ----- top level -------------------------------------------------------

    def build(self) -> Module:
        rng = self.rng
        shapes = [
            (self.shape_store_run, 4),
            (self.shape_reduction, 3),
            (self.shape_mixed_lanes, 2),
            (self.shape_scalar_update, 2),
            (self.shape_width_mix, 2),
        ]
        if self.config.allow_calls:
            shapes.append((self.shape_call_run, 2))
        if self.config.allow_branches:
            shapes.append((self.shape_diamond, 2))
        if self.config.allow_traps:
            shapes.append((self.shape_trap_hazard, 1))
        deck = [shape for shape, weight in shapes for _ in range(weight)]

        count = rng.randrange(self.config.min_shapes, self.config.max_shapes + 1)
        for _ in range(count):
            rng.choice(deck)()
            if rng.random() < 0.5:
                self.arith()

        result = self.operand()
        for _ in range(rng.randrange(1, 3)):
            result = self.builder.xor(result, self.operand())
        self.builder.ret(result)
        return self.module

