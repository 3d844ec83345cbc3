"""Step accounting and the memory bound agree across evaluator backends.

The compiled evaluator ticks a whole block at once when it can (no call,
no ``instruction_hook``, no chance of crossing the step budget) and
rewinds ``steps`` to the faulting instruction when a block traps.  These
cases hold it to the interpreter's instruction-by-instruction ticks: the
``Observation`` (``steps`` included), ``block_counts``, the memory a run
leaves behind and the hook's stream must match exactly, at every step
budget across a phi-plus-body block, at traps in the middle of a block,
under a callee that exhausts the budget and under a hook.

An allocation past ``MEMORY_LIMIT`` traps before any memory grows, with
one trap kind on both backends.
"""

import pytest

from repro.difftest.oracle import ArgumentVector, Observation, observe_call
from repro.ir import (
    MEMORY_LIMIT,
    StepLimitExceeded,
    TrapError,
    parse_module,
)
from repro.ir.compile_eval import EVALUATOR_CHOICES, make_machine

#: A loop whose block has two phis, an index sign-extended from an
#: add, a folded address, a load, a store and a compare feeding the
#: branch: 2 phis and 9 instructions per iteration.  It touches
#: ``@g[i + 1]``, so ``n`` past 3 runs off the array.
LOOP = """
@g = global [4 x i32] zeroinitializer

define i32 @f(i32 %n) {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %acc.next, %loop ]
  %i.next = add i32 %i, 1
  %idx = sext i32 %i.next to i64
  %p = getelementptr [4 x i32], [4 x i32]* @g, i64 0, i64 %idx
  %v = load i32, i32* %p
  %w = add i32 %v, %i
  store i32 %w, i32* %p
  %acc.next = add i32 %acc, %w
  %c = icmp slt i32 %i.next, %n
  br i1 %c, label %loop, label %exit

exit:
  ret i32 %acc.next
}
"""

#: Steps of ``@f(3)`` on ``LOOP``: the entry branch, three iterations
#: and the return.
LOOP_STEPS = 1 + 3 * 11 + 1

#: ``(name, source, function, args)``: each faults in the middle of a
#: block that the compiled evaluator ticks whole.
MID_BLOCK_TRAPS = (
    ("oob-load", """
define i32 @f(i64 %k) {
entry:
  %a = add i64 %k, 1
  %p = getelementptr i32, i32* null, i64 %a
  %v = load i32, i32* %p
  %b = add i32 %v, 1
  ret i32 %b
}
""", "f", (3,)),
    ("oob-store", """
@g = global [2 x i32] zeroinitializer

define void @f(i64 %k) {
entry:
  %p = getelementptr [2 x i32], [2 x i32]* @g, i64 0, i64 0
  store i32 5, i32* %p
  %q = getelementptr i32, i32* null, i64 %k
  store i32 7, i32* %q
  store i32 9, i32* %p
  ret void
}
""", "f", (1,)),
    ("sdiv-by-zero", """
define i32 @f(i32 %a, i32 %z) {
entry:
  %x = add i32 %a, 1
  %q = sdiv i32 %x, %z
  %r = mul i32 %q, 2
  ret i32 %r
}
""", "f", (6, 0)),
    ("unreachable", """
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %y = mul i32 %x, 3
  unreachable
}
""", "f", (2,)),
    ("oob-load-in-a-loop", LOOP, "f", (9,)),
    ("phi-without-incoming", """
define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  br label %join

other:
  br label %join

join:
  %p = phi i32 [ 0, %other ]
  %q = phi i32 [ %x, %entry ], [ 1, %other ]
  %r = add i32 %p, %q
  ret i32 %r
}
""", "f", (4,)),
)

#: A call whose callee spins until the budget runs out.
CALLEE_EXHAUSTS = """
define i32 @spin(i32 %n) {
entry:
  br label %loop

loop:
  %i = phi i32 [ %n, %entry ], [ %j, %loop ]
  %j = add i32 %i, 1
  br label %loop
}

define i32 @f(i32 %a) {
entry:
  %x = add i32 %a, 1
  %r = call i32 @spin(i32 %x)
  %s = add i32 %r, 1
  ret i32 %s
}
"""


def run_on(module, evaluator, name, args, step_limit, hook=False):
    """Everything a run shows: outcome, steps, block counts, memory and
    (with ``hook``) the executed-instruction stream."""
    machine = make_machine(module, evaluator, step_limit=step_limit)
    stream = []
    if hook:
        machine.instruction_hook = stream.append
    try:
        outcome = ("ok", machine.call(module.get_function(name), list(args)))
    except StepLimitExceeded as error:
        outcome = ("timeout", str(error))
    except TrapError as error:
        outcome = ("trap", str(error))
    return {
        "outcome": outcome,
        "steps": machine.steps,
        "block_counts": dict(machine.block_counts),
        "globals": machine.global_contents(),
        "stream": stream,
    }


def assert_backends_agree(
    source, name, args, step_limit=5_000_000, hook=False
):
    module = parse_module(source)
    runs = {
        evaluator: run_on(module, evaluator, name, args, step_limit, hook)
        for evaluator in EVALUATOR_CHOICES
    }
    observations = {
        evaluator: observe_call(
            module, name, ArgumentVector(tuple(args)),
            step_limit=step_limit, evaluator=evaluator,
        )
        for evaluator in EVALUATOR_CHOICES
    }
    assert runs["interp"] == runs["compiled"], step_limit
    assert observations["interp"] == observations["compiled"], step_limit
    return runs["interp"], observations["interp"]


def test_loop_runs_to_completion_in_the_expected_steps():
    run, observation = assert_backends_agree(LOOP, "f", (3,))
    assert run["outcome"] == ("ok", 0 + 1 + 2)
    assert run["steps"] == observation.steps == LOOP_STEPS
    assert run["block_counts"] == {
        ("f", "entry"): 1, ("f", "loop"): 3, ("f", "exit"): 1,
    }


@pytest.mark.parametrize("step_limit", range(LOOP_STEPS + 2))
def test_step_limit_at_every_offset_of_a_phi_and_body_block(step_limit):
    run, observation = assert_backends_agree(
        LOOP, "f", (3,), step_limit=step_limit
    )
    if step_limit < LOOP_STEPS:
        assert run["outcome"] == ("timeout", f"exceeded {step_limit} steps")
        assert run["steps"] == step_limit + 1
        assert observation.status == "timeout"
    else:
        assert run["outcome"][0] == "ok"


@pytest.mark.parametrize(
    "source,name,args",
    [case[1:] for case in MID_BLOCK_TRAPS],
    ids=[case[0] for case in MID_BLOCK_TRAPS],
)
def test_trap_in_the_middle_of_a_block(source, name, args):
    run, observation = assert_backends_agree(source, name, args)
    assert run["outcome"][0] == "trap"
    assert observation.status == "trap"
    assert observation.steps == run["steps"] > 0


def test_trap_steps_count_through_the_faulting_instruction():
    # ``sdiv`` is the second tick of its block: the add, then itself.
    run, _ = assert_backends_agree(*[case[1:] for case in MID_BLOCK_TRAPS][2])
    assert run["steps"] == 2


@pytest.mark.parametrize("step_limit", (5, 50, 51, 52))
def test_callee_exhausts_the_budget(step_limit):
    run, observation = assert_backends_agree(
        CALLEE_EXHAUSTS, "f", (1,), step_limit=step_limit
    )
    assert run["outcome"] == ("timeout", f"exceeded {step_limit} steps")
    assert observation == Observation(status="timeout", steps=step_limit + 1)


def test_instruction_hook_sees_every_tick_in_order():
    run, _ = assert_backends_agree(LOOP, "f", (3,), hook=True)
    assert len(run["stream"]) == LOOP_STEPS
    assert [inst.opcode for inst in run["stream"][:4]] == [
        "br", "phi", "phi", "add",
    ]


def test_instruction_hook_under_a_step_limit():
    run, _ = assert_backends_agree(LOOP, "f", (3,), step_limit=17, hook=True)
    assert run["outcome"][0] == "timeout"
    assert len(run["stream"]) == 17


def test_alloca_past_the_memory_limit_traps_on_both_backends():
    size = MEMORY_LIMIT + 1
    source = (
        f"define i32 @f() {{\nentry:\n  %p = alloca [{size} x i8]\n"
        f"  ret i32 7\n}}\n"
    )
    run, observation = assert_backends_agree(source, "f", ())
    assert run["outcome"][0] == "trap"
    assert "memory limit exceeded" in run["outcome"][1]
    assert observation == Observation(
        status="trap", trap_kind="memory-limit", steps=1
    )


def test_globals_past_the_memory_limit_trap_before_the_first_step():
    size = MEMORY_LIMIT + 1
    module = parse_module(
        f"@big = global [{size} x i8] zeroinitializer\n\n"
        f"define i32 @f() {{\nentry:\n  ret i32 7\n}}\n"
    )
    for evaluator in EVALUATOR_CHOICES:
        observation = observe_call(
            module, "f", ArgumentVector(()), evaluator=evaluator
        )
        assert observation == Observation(
            status="trap", trap_kind="memory-limit"
        ), evaluator
