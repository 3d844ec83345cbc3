"""Parity of the compiled evaluator with the reference interpreter.

``repro.ir.compile_eval`` lowers verified IR to Python closures for
speed; correctness is defined entirely by agreement with
``repro.ir.interp``.  These tests pin that agreement at machine level
-- results, step counts, block counts, memory, extern traces, trap
messages, hooks -- on handwritten programs covering each lowering
path, then sweep fuzzed modules through full ``Observation`` equality
(a 200-case campaign under ``-m slow``).
"""

import struct

import pytest

from repro.ir import (
    Machine,
    StepLimitExceeded,
    TrapError,
    parse_module,
    run_function,
)
from repro.ir.compile_eval import (
    EVALUATOR_CHOICES,
    CompiledMachine,
    CompiledProgram,
    make_machine,
)
from repro.difftest.parity import check_backend_parity


def machines_for(source):
    module = parse_module(source)
    return module, Machine(module), CompiledMachine(module)


def run_both(source, name, args=(), externs=None, step_limit=5_000_000):
    """Run ``@name`` under both backends and pin shared observables."""
    module = parse_module(source)
    results = {}
    machines = {}
    for evaluator in EVALUATOR_CHOICES:
        results[evaluator], machines[evaluator] = run_function(
            module, name, args, externs=externs,
            step_limit=step_limit, evaluator=evaluator,
        )
    interp, compiled = machines["interp"], machines["compiled"]
    assert results["interp"] == results["compiled"]
    assert interp.steps == compiled.steps
    assert interp.block_counts == compiled.block_counts
    assert interp.global_contents() == compiled.global_contents()
    assert interp.extern_trace == compiled.extern_trace
    return results["interp"], interp, compiled


def trap_both(source, name, args=(), exc=TrapError):
    """Both backends must raise ``exc`` with the identical message."""
    module = parse_module(source)
    messages = []
    for evaluator in EVALUATOR_CHOICES:
        with pytest.raises(exc) as info:
            run_function(module, name, args, evaluator=evaluator)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    return messages[0]


class TestControlFlowParity:
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
        result, _, _ = run_both(src, "tri", [10])
        assert result == 55

    def test_phi_swap_is_atomic(self):
        # The compiled backend pre-resolves phi moves per CFG edge;
        # the parallel-copy read-then-write order must survive that.
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
        for n in (1, 2, 3, 8):
            result, _, _ = run_both(src, "f", [n])
            assert result == (n - 1) % 2

    def test_recursion(self):
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
        result, _, _ = run_both(src, "fact", [6])
        assert result == 720

    def test_select(self):
        src = """
define i32 @f(i1 %c, i32 %a, i32 %b) {
entry:
  %r = select i1 %c, i32 %a, i32 %b
  ret i32 %r
}
"""
        assert run_both(src, "f", [1, 10, 20])[0] == 10
        assert run_both(src, "f", [0, 10, 20])[0] == 20


class TestMemoryParity:
    def test_globals_and_struct_gep(self):
        src = """
%struct.mixed = type { i8, i32, i64 }

@M = global %struct.mixed zeroinitializer
@A = global [3 x i32] [i32 10, i32 20, i32 30]

define i32 @f(i64 %idx) {
entry:
  %p1 = getelementptr %struct.mixed, %struct.mixed* @M, i64 0, i64 1
  store i32 77, i32* %p1
  %pa = getelementptr [3 x i32], [3 x i32]* @A, i64 0, i64 %idx
  %v = load i32, i32* %pa
  %w = load i32, i32* %p1
  %r = add i32 %v, %w
  ret i32 %r
}
"""
        result, interp, compiled = run_both(src, "f", [2])
        assert result == 107
        raw = compiled.global_contents()["M"]
        assert struct.unpack_from("<i", raw, 4)[0] == 77

    def test_alloca_roundtrip(self):
        src = """
define double @f(double %x) {
entry:
  %p = alloca double
  store double %x, double* %p
  %v = load double, double* %p
  ret double %v
}
"""
        assert run_both(src, "f", [2.5])[0] == 2.5

    def test_oob_trap_message(self):
        src = """
define i32 @f(i32* %p) {
entry:
  %v = load i32, i32* %p
  ret i32 %v
}
"""
        message = trap_both(src, "f", [0])
        assert "out-of-bounds access" in message


class TestTrapParity:
    def test_division_by_zero(self):
        src = """
define i32 @f(i32 %a, i32 %b) {
entry:
  %r = sdiv i32 %a, %b
  ret i32 %r
}
"""
        trap_both(src, "f", [7, 0])

    def test_unreachable(self):
        src = """
define void @f() {
entry:
  unreachable
}
"""
        assert trap_both(src, "f") == "executed unreachable"

    def test_step_limit_agrees_exactly(self):
        src = """
define void @spin() {
entry:
  br label %loop

loop:
  br label %loop
}
"""
        module = parse_module(src)
        steps = []
        for evaluator in EVALUATOR_CHOICES:
            with pytest.raises(StepLimitExceeded) as info:
                run_function(
                    module, "spin", step_limit=1000, evaluator=evaluator
                )
            steps.append(str(info.value))
        assert steps[0] == steps[1] == "exceeded 1000 steps"

    def test_callee_arity_trap(self):
        src = """
define i32 @id(i32 %x) {
entry:
  ret i32 %x
}
"""
        module = parse_module(src)
        for evaluator in EVALUATOR_CHOICES:
            machine = make_machine(module, evaluator)
            with pytest.raises(TrapError, match="expects 1 args, got 2"):
                machine.call(module.get_function("id"), [1, 2])


class TestCastsAndCallsParity:
    def test_casts(self):
        src = """
define i64 @f(i8 %x) {
entry:
  %s = sext i8 %x to i64
  ret i64 %s
}

define i32 @g(float %x) {
entry:
  %b = bitcast float %x to i32
  ret i32 %b
}

define i32 @h(double %x) {
entry:
  %t = fptosi double %x to i32
  ret i32 %t
}
"""
        assert run_both(src, "f", [-1])[0] == -1
        expected = struct.unpack("<i", struct.pack("<f", 1.0))[0]
        assert run_both(src, "g", [1.0])[0] == expected
        # fptosi of NaN is pinned to 0 in both backends.
        assert run_both(src, "h", [float("nan")])[0] == 0

    def test_sext_of_computed_values(self):
        # A sign extension of an arithmetic result or a load compiles
        # to a register copy; the wrapped source must read the same.
        src = """
@b = global [2 x i8] zeroinitializer

define i64 @f(i32 %a, i32 %c, i8 %v) {
entry:
  %x = add i32 %a, %c
  %s = sext i32 %x to i64
  %p = getelementptr [2 x i8], [2 x i8]* @b, i64 0, i64 1
  store i8 %v, i8* %p
  %l = load i8, i8* %p
  %t = sext i8 %l to i64
  %r = add i64 %s, %t
  ret i64 %r
}
"""
        cases = (
            ((2**31 - 1, 1, -128), -(2**31) - 128),
            ((-(2**31), -1, 127), 2**31 - 1 + 127),
            ((5, 7, -1), 11),
        )
        for args, want in cases:
            assert run_both(src, "f", list(args))[0] == want, args

    def test_extern_trace_and_defaults(self):
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
        result, interp, _ = run_both(
            src, "f", externs={"ext": lambda m, args: args[0] * 10}
        )
        assert result == 30
        assert interp.extern_trace == [("ext", (1,)), ("ext", (2,))]
        # The deterministic default handler must also agree.
        run_both(src, "f")

    def test_indirect_call(self):
        src = """
define i32 @double(i32 %x) {
entry:
  %r = add i32 %x, %x
  ret i32 %r
}

define i32 @f(i64 %fp) {
entry:
  %r = call i32 @double(i32 21)
  ret i32 %r
}
"""
        module = parse_module(src)
        caller = module.get_function("f")
        call_inst = caller.entry.instructions[0]
        # Rewrite the direct call into an indirect one through %fp
        # (the parser has no syntax for function-pointer calls).
        call_inst.set_operand(0, caller.arguments[0])
        for evaluator in EVALUATOR_CHOICES:
            machine = make_machine(module, evaluator)
            address = module.get_function("double")._interp_address
            fn = module.get_function("f")
            assert machine.call(fn, [address]) == 42
            with pytest.raises(TrapError, match="invalid address 12345"):
                machine.call(fn, [12345])


class TestBackendPlumbing:
    def test_make_machine_rejects_unknown(self):
        module = parse_module("define void @f() {\nentry:\n  ret void\n}\n")
        with pytest.raises(ValueError) as info:
            make_machine(module, "jit")
        for choice in EVALUATOR_CHOICES:
            assert choice in str(info.value)

    def test_program_reuse_across_machines(self):
        src = """
define i32 @f(i32 %x) {
entry:
  %r = mul i32 %x, 3
  ret i32 %r
}
"""
        module = parse_module(src)
        program = CompiledProgram(module)
        fn = module.get_function("f")
        for x in (1, 2, 3):
            machine = CompiledMachine(module, program=program)
            assert machine.call(fn, [x]) == 3 * x

    def test_program_must_match_module(self):
        module_a = parse_module("define void @f() {\nentry:\n  ret void\n}\n")
        module_b = parse_module("define void @f() {\nentry:\n  ret void\n}\n")
        program = CompiledProgram(module_a)
        with pytest.raises(ValueError):
            CompiledMachine(module_b, program=program)

    def test_instruction_hook_sees_same_stream(self):
        src = """
define i32 @f(i32 %n) {
entry:
  %c = icmp sgt i32 %n, 0
  br i1 %c, label %pos, label %neg

pos:
  %a = add i32 %n, 1
  ret i32 %a

neg:
  %b = sub i32 %n, 1
  ret i32 %b
}
"""
        module = parse_module(src)
        streams = {}
        for evaluator in EVALUATOR_CHOICES:
            machine = make_machine(module, evaluator)
            opcodes = []
            machine.instruction_hook = lambda inst: opcodes.append(inst.opcode)
            machine.call(module.get_function("f"), [5])
            streams[evaluator] = opcodes
        assert streams["interp"] == streams["compiled"]
        assert streams["interp"] == ["icmp", "br", "add", "ret"]


class TestFuzzerParity:
    def test_parity_smoke_bounded(self):
        # Tier-1 keeps a small always-on sweep; the full 200-case
        # campaign runs under `-m slow`.
        assert check_backend_parity(0, 20) == []

    @pytest.mark.slow
    def test_parity_smoke_200(self):
        mismatches = check_backend_parity(0, 200)
        assert mismatches == [], "\n".join(mismatches)


@pytest.mark.fault
class TestParityUnderFaults:
    def test_evaluator_fault_is_a_structured_entry(self):
        from repro.faultinject import FaultPlan, active_plan, clear_plan

        clear_plan()
        try:
            plan = FaultPlan.parse("difftest.observe:raise@1x*")
            with active_plan(plan):
                mismatches = check_backend_parity(0, 2, run_pipeline=False)
        finally:
            clear_plan()
        # Every vector degrades to a structured "evaluator error" line
        # instead of a traceback unwinding the whole sweep.
        assert mismatches
        assert all("evaluator error" in m for m in mismatches)
