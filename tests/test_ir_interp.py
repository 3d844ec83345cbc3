"""Interpreter semantics tests: the oracle must itself be right."""

import struct

import pytest

from repro.ir import (
    I16,
    I32,
    I64,
    I8,
    F32,
    F64,
    Machine,
    StepLimitExceeded,
    TrapError,
    parse_module,
    run_function,
)


def run_src(source, name, args=(), externs=None):
    module = parse_module(source)
    return run_function(module, name, args, externs)


class TestArithmetic:
    def test_wrapping_add(self):
        src = """
define i32 @f(i32 %a, i32 %b) {
entry:
  %r = add i32 %a, %b
  ret i32 %r
}
"""
        assert run_src(src, "f", [2**31 - 1, 1])[0] == -(2**31)
        assert run_src(src, "f", [-5, 3])[0] == -2

    def test_division_semantics(self):
        src = """
define i32 @f(i32 %a, i32 %b) {
entry:
  %r = sdiv i32 %a, %b
  ret i32 %r
}
"""
        assert run_src(src, "f", [7, 2])[0] == 3
        assert run_src(src, "f", [-7, 2])[0] == -3  # truncation toward zero
        assert run_src(src, "f", [7, -2])[0] == -3
        with pytest.raises(TrapError):
            run_src(src, "f", [1, 0])

    def test_srem_sign(self):
        src = """
define i32 @f(i32 %a, i32 %b) {
entry:
  %r = srem i32 %a, %b
  ret i32 %r
}
"""
        assert run_src(src, "f", [-7, 2])[0] == -1
        assert run_src(src, "f", [7, -2])[0] == 1

    def test_unsigned_ops(self):
        src = """
define i32 @f(i32 %a, i32 %b) {
entry:
  %d = udiv i32 %a, %b
  ret i32 %d
}
"""
        # -4 as unsigned is 2**32-4; (2**32-4)//2 fits in signed i32.
        assert run_src(src, "f", [-4, 2])[0] == 2**31 - 2

    def test_shifts(self):
        src = """
define i32 @f(i32 %a, i32 %s) {
entry:
  %l = shl i32 %a, %s
  %r = ashr i32 %l, %s
  ret i32 %r
}
"""
        assert run_src(src, "f", [-3, 4])[0] == -3

    def test_lshr_vs_ashr(self):
        src = """
define i32 @f(i32 %a) {
entry:
  %r = lshr i32 %a, 1
  ret i32 %r
}
"""
        assert run_src(src, "f", [-2])[0] == 0x7FFFFFFF

    def test_float_rounding_f32(self):
        src = """
define float @f(float %a, float %b) {
entry:
  %r = fadd float %a, %b
  ret float %r
}
"""
        result, _ = run_src(src, "f", [0.1, 0.2])
        f32_result = struct.unpack("<f", struct.pack("<f", 0.1 + 0.2))[0]
        # 0.1 and 0.2 are passed as doubles; machine rounds the sum to f32.
        assert result == struct.unpack(
            "<f", struct.pack("<f", 0.30000000000000004)
        )[0]

    def test_icmp_signed_vs_unsigned(self):
        src = """
define i1 @s(i32 %a, i32 %b) {
entry:
  %r = icmp slt i32 %a, %b
  ret i1 %r
}

define i1 @u(i32 %a, i32 %b) {
entry:
  %r = icmp ult i32 %a, %b
  ret i1 %r
}
"""
        m = parse_module(src)
        assert run_function(m, "s", [-1, 0])[0] == 1
        assert run_function(m, "u", [-1, 0])[0] == 0

    @pytest.mark.parametrize("evaluator", ["interp", "compiled"])
    def test_division_by_a_signed_zero(self, evaluator):
        src = """
define double @f(double %a, double %b) {
entry:
  %r = fdiv double %a, %b
  ret double %r
}
"""
        module = parse_module(src)

        def div(a, b):
            return run_function(module, "f", [a, b], evaluator=evaluator)[0]

        inf = float("inf")
        assert div(1.0, 0.0) == inf
        assert div(1.0, -0.0) == -inf
        assert div(-1.0, -0.0) == inf
        assert div(-inf, 0.0) == -inf
        for a in (0.0, -0.0, float("nan")):
            assert div(a, -0.0) != div(a, -0.0)  # NaN

    def test_fcmp_unordered(self):
        src = """
define i1 @f(double %a) {
entry:
  %r = fcmp olt double %a, 1.0
  ret i1 %r
}
"""
        assert run_src(src, "f", [float("nan")])[0] == 0


class TestCasts:
    def test_int_casts(self):
        src = """
define i64 @f(i8 %x) {
entry:
  %s = sext i8 %x to i64
  ret i64 %s
}

define i64 @g(i8 %x) {
entry:
  %z = zext i8 %x to i64
  ret i64 %z
}

define i8 @h(i64 %x) {
entry:
  %t = trunc i64 %x to i8
  ret i8 %t
}
"""
        m = parse_module(src)
        assert run_function(m, "f", [-1])[0] == -1
        assert run_function(m, "g", [-1])[0] == 255
        assert run_function(m, "h", [0x1FF])[0] == -1

    def test_bitcast_float_int(self):
        src = """
define i32 @f(float %x) {
entry:
  %b = bitcast float %x to i32
  ret i32 %b
}
"""
        result, _ = run_src(src, "f", [1.0])
        assert result == struct.unpack("<i", struct.pack("<f", 1.0))[0]


class TestMemory:
    def test_store_load_roundtrip_all_widths(self):
        src = """
define void @f(i8* %p8, i16* %p16, i32* %p32, i64* %p64) {
entry:
  store i8 -5, i8* %p8
  store i16 -300, i16* %p16
  store i32 123456, i32* %p32
  store i64 -9999999999, i64* %p64
  ret void
}
"""
        m = parse_module(src)
        mach = Machine(m)
        addrs = [mach.alloc(8) for _ in range(4)]
        mach.call(m.get_function("f"), addrs)
        assert mach.read_value(addrs[0], I8) == -5
        assert mach.read_value(addrs[1], I16) == -300
        assert mach.read_value(addrs[2], I32) == 123456
        assert mach.read_value(addrs[3], I64) == -9999999999

    def test_float_memory(self):
        src = """
define void @f(float* %p, double* %q) {
entry:
  store float 1.25, float* %p
  store double 2.5, double* %q
  ret void
}
"""
        m = parse_module(src)
        mach = Machine(m)
        p, q = mach.alloc(4), mach.alloc(8)
        mach.call(m.get_function("f"), [p, q])
        assert mach.read_value(p, F32) == 1.25
        assert mach.read_value(q, F64) == 2.5

    def test_global_initializers(self):
        src = """
@A = global [3 x i32] [i32 10, i32 20, i32 30]
@S = global i32 42

define i32 @f() {
entry:
  %p = getelementptr [3 x i32], [3 x i32]* @A, i64 0, i64 1
  %v = load i32, i32* %p
  %s = load i32, i32* @S
  %r = add i32 %v, %s
  ret i32 %r
}
"""
        assert run_src(src, "f")[0] == 62

    def test_struct_gep_offsets(self):
        src = """
%struct.mixed = type { i8, i32, i64 }

@M = global %struct.mixed zeroinitializer

define void @f() {
entry:
  %p0 = getelementptr %struct.mixed, %struct.mixed* @M, i64 0, i64 0
  store i8 1, i8* %p0
  %p1 = getelementptr %struct.mixed, %struct.mixed* @M, i64 0, i64 1
  store i32 2, i32* %p1
  %p2 = getelementptr %struct.mixed, %struct.mixed* @M, i64 0, i64 2
  store i64 3, i64* %p2
  ret void
}
"""
        _, mach = run_src(src, "f")
        raw = mach.global_contents()["M"]
        assert raw[0] == 1
        assert struct.unpack_from("<i", raw, 4)[0] == 2
        assert struct.unpack_from("<q", raw, 8)[0] == 3

    def test_null_deref_traps(self):
        src = """
define i32 @f(i32* %p) {
entry:
  %v = load i32, i32* %p
  ret i32 %v
}
"""
        with pytest.raises(TrapError):
            run_src(src, "f", [0])

    def test_alloca_distinct(self):
        src = """
define i32 @f() {
entry:
  %a = alloca i32
  %b = alloca i32
  store i32 1, i32* %a
  store i32 2, i32* %b
  %va = load i32, i32* %a
  %vb = load i32, i32* %b
  %r = add i32 %va, %vb
  ret i32 %r
}
"""
        assert run_src(src, "f")[0] == 3


class TestControlFlowAndCalls:
    def test_phi_loop(self):
        src = """
define i32 @tri(i32 %n) {
entry:
  br label %loop

loop:
  %i = phi i32 [ 1, %entry ], [ %in, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %an, %loop ]
  %an = add i32 %acc, %i
  %in = add i32 %i, 1
  %c = icmp sle i32 %in, %n
  br i1 %c, label %loop, label %out

out:
  ret i32 %an
}
"""
        assert run_src(src, "tri", [10])[0] == 55

    def test_phi_swap_is_atomic(self):
        # Classic parallel-copy hazard: both phis must read pre-update
        # values.
        src = """
define i32 @f(i32 %n) {
entry:
  br label %loop

loop:
  %a = phi i32 [ 0, %entry ], [ %b, %loop ]
  %b = phi i32 [ 1, %entry ], [ %a, %loop ]
  %i = phi i32 [ 0, %entry ], [ %in, %loop ]
  %in = add i32 %i, 1
  %c = icmp slt i32 %in, %n
  br i1 %c, label %loop, label %out

out:
  ret i32 %a
}
"""
        # After k iterations a == k % 2 alternates between 0 and 1.
        assert run_src(src, "f", [1])[0] == 0
        assert run_src(src, "f", [2])[0] == 1
        assert run_src(src, "f", [3])[0] == 0

    def test_direct_recursion(self):
        src = """
define i32 @fact(i32 %n) {
entry:
  %base = icmp sle i32 %n, 1
  br i1 %base, label %ret1, label %rec

ret1:
  ret i32 1

rec:
  %n1 = sub i32 %n, 1
  %r = call i32 @fact(i32 %n1)
  %m = mul i32 %n, %r
  ret i32 %m
}
"""
        assert run_src(src, "fact", [6])[0] == 720

    def test_extern_trace_and_handler(self):
        src = """
declare i32 @ext(i32)

define i32 @f() {
entry:
  %a = call i32 @ext(i32 1)
  %b = call i32 @ext(i32 2)
  %r = add i32 %a, %b
  ret i32 %r
}
"""
        result, mach = run_src(
            src, "f", externs={"ext": lambda m, args: args[0] * 10}
        )
        assert result == 30
        assert mach.extern_trace == [("ext", (1,)), ("ext", (2,))]

    def test_extern_default_deterministic(self):
        src = """
declare i32 @mystery(i32)

define i32 @f(i32 %x) {
entry:
  %r = call i32 @mystery(i32 %x)
  ret i32 %r
}
"""
        m = parse_module(src)
        r1, _ = run_function(m, "f", [5])
        r2, _ = run_function(m, "f", [5])
        assert r1 == r2

    def test_step_limit(self):
        src = """
define void @spin() {
entry:
  br label %loop

loop:
  br label %loop
}
"""
        m = parse_module(src)
        with pytest.raises(StepLimitExceeded):
            run_function(m, "spin", step_limit=1000)

    def test_step_counting(self):
        src = """
define i32 @f() {
entry:
  %a = add i32 1, 2
  %b = add i32 %a, 3
  ret i32 %b
}
"""
        _, mach = run_src(src, "f")
        assert mach.steps == 3  # two adds + ret

    def test_nested_calls(self):
        src = """
define i32 @inner(i32 %x) {
entry:
  %r = add i32 %x, 100
  ret i32 %r
}

define i32 @outer(i32 %x) {
entry:
  %a = call i32 @inner(i32 %x)
  %b = call i32 @inner(i32 %a)
  ret i32 %b
}
"""
        assert run_src(src, "outer", [1])[0] == 201


class TestMemoryImage:
    """Every machine on a module starts from one cached memory image."""

    SRC = """
@a = global i32 7
@t = global [2 x i32] [i32 1, i32 2]
@z = global i64 0

define i32 @read(i32 %i) {
entry:
  %p = getelementptr [2 x i32], [2 x i32]* @t, i64 0, i32 %i
  %v = load i32, i32* %p
  ret i32 %v
}
"""

    @staticmethod
    def machine(module, evaluator):
        from repro.ir.compile_eval import make_machine

        return make_machine(module, evaluator)

    @pytest.mark.parametrize("evaluator", ["interp", "compiled"])
    def test_machines_on_one_module_start_equal(self, evaluator):
        module = parse_module(self.SRC)
        first = self.machine(module, evaluator)
        second = self.machine(module, evaluator)
        assert first.memory == second.memory
        assert first.global_addresses == second.global_addresses
        assert first.global_contents()["t"] == struct.pack("<2i", 1, 2)
        assert first.global_contents()["a"] == struct.pack("<i", 7)

    @pytest.mark.parametrize("evaluator", ["interp", "compiled"])
    def test_a_write_never_reaches_the_next_machine(self, evaluator):
        module = parse_module(self.SRC)
        first = self.machine(module, evaluator)
        pristine = bytes(first.memory)
        first.write_value(first.global_addresses["a"], I32, 99)
        first.global_addresses["a"] = 0
        first.alloc(32)
        second = self.machine(module, evaluator)
        assert bytes(second.memory) == pristine
        assert second.read_value(second.global_addresses["a"], I32) == 7

    @pytest.mark.parametrize("evaluator", ["interp", "compiled"])
    def test_appending_a_global_rebuilds_the_image(self, evaluator):
        from repro.ir import ArrayType, ConstantAggregate, ConstantInt

        module = parse_module(self.SRC)
        before = self.machine(module, evaluator)
        contents_before = before.global_contents()
        table = ArrayType(I32, 2)
        module.add_global("__rolag.vals.1", table, ConstantAggregate(
            table, [ConstantInt(I32, 5), ConstantInt(I32, 6)]
        ), True)
        after = self.machine(module, evaluator)
        contents = after.global_contents()
        assert contents["__rolag.vals.1"] == struct.pack("<2i", 5, 6)
        for name in ("a", "t", "z"):
            assert contents[name] == contents_before[name]
        assert {
            name: address
            for name, address in after.global_addresses.items()
            if name != "__rolag.vals.1"
        } == before.global_addresses

    @pytest.mark.parametrize("evaluator", ["interp", "compiled"])
    def test_a_global_re_added_after_rollback_rebuilds_the_image(
        self, evaluator
    ):
        # A rolled-back RoLAG attempt removes its table; the retry may
        # draw the same name for a table with other contents.
        from repro.ir import ArrayType, ConstantAggregate, ConstantInt
        from repro.ir.snapshot import FunctionSnapshot

        module = parse_module(self.SRC)
        snapshot = FunctionSnapshot(module.get_function("read"))
        table = ArrayType(I32, 2)

        def add_table(x, y):
            module.add_global("__rolag.vals.1", table, ConstantAggregate(
                table, [ConstantInt(I32, x), ConstantInt(I32, y)]
            ), True)
            return self.machine(module, evaluator).global_contents()

        assert add_table(5, 6)["__rolag.vals.1"] == struct.pack("<2i", 5, 6)
        snapshot.restore()
        assert add_table(8, 9)["__rolag.vals.1"] == struct.pack("<2i", 8, 9)
