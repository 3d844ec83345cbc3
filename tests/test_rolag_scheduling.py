"""Scheduling-analysis safety tests (paper Section IV-D, Fig. 13).

Rolling reorders instructions; these tests craft blocks where a naive
reordering would be wrong and check that the analysis refuses them --
and that legal-but-tricky reorderings still succeed and stay correct.
"""

import pytest

from tests.helpers import assert_transform_preserves, execute, ints_to_bytes

from repro.bench import angha, tsvc
from repro.frontend import compile_c
from repro.ir import parse_module, print_module, verify_module
from repro.rolag import (
    RolagConfig,
    RolagStats,
    roll_loops_in_function,
    roll_loops_in_module,
)

pytestmark = pytest.mark.usefixtures("stamp_checker")


def roll(module, name="f", config=None, stats=None):
    return roll_loops_in_function(
        module.get_function(name), config=config, stats=stats
    )


class TestMemoryOrderingSafety:
    def test_interleaved_conflicting_store_blocks_roll(self):
        # A store to p[1] sits between the group's stores and would be
        # overtaken by the rolled loop: must not roll (or must stay
        # correct if some subgroup is found).
        src = """
define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  %clobber = getelementptr i32, i32* %p, i64 2
  store i32 99, i32* %clobber
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 1, i32* %p3
  ret void
}
"""
        def transform(m):
            return roll(m)

        # p[2] must end as 1 (group store wins over the 99 clobber).
        _, module = assert_transform_preserves(
            src, transform, "f", buffer_specs=[ints_to_bytes([0] * 4)]
        )

    def test_load_after_group_store_blocks_reorder(self):
        # A load between the stores observes the partially-updated
        # buffer and feeds a later store: rolling the group past it
        # would change its value.
        src = """
define void @f(i32* %p, i32* %out) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 5, i32* %p0
  %snoop = load i32, i32* %p0
  store i32 %snoop, i32* %out
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 5, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 5, i32* %p2
  ret void
}
"""
        def transform(m):
            return roll(m)

        _, module = assert_transform_preserves(
            src,
            transform,
            "f",
            buffer_specs=[ints_to_bytes([0, 0, 0]), ints_to_bytes([0])],
        )

    def test_maybe_aliasing_arguments_conservative(self):
        # %q may alias %p: loads through %q cannot migrate across the
        # store group, whatever the rolled order is.
        src = """
define i32 @f(i32* %p, i32* %q) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %p0
  %v = load i32, i32* %q
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %p2
  ret i32 %v
}
"""
        m = parse_module(src)
        rolled = roll(m)
        verify_module(m)
        # Aliased run: q == &p[1]; the load must still see the OLD p[1].
        from repro.ir import Machine

        def run(module):
            mach = Machine(module)
            buf = mach.alloc(12)
            mach.write_bytes(buf, ints_to_bytes([7, 8, 9]))
            result = mach.call(module.get_function("f"), [buf, buf + 4])
            return result, mach.read_bytes(buf, 12)

        fresh = parse_module(src)
        assert run(fresh) == run(m)

    def test_opaque_call_between_stores(self):
        src = """
declare void @fence()

define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  call void @fence()
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 1, i32* %p3
  ret void
}
"""
        m = parse_module(src)
        stats = RolagStats()
        rolled = roll(m, stats=stats)
        verify_module(m)
        # The 4-store group cannot cross the call; subgroups of 2 are
        # unprofitable, so typically nothing rolls -- and whatever
        # happens, behaviour is preserved.
        before = execute(
            parse_module(src), "f", buffer_specs=[ints_to_bytes([0] * 4)]
        )
        after = execute(m, "f", buffer_specs=[ints_to_bytes([0] * 4)])
        assert before.same_behaviour(after)

    def test_disjoint_buffers_allow_interleaved_rolls(self):
        # Stores to two provably distinct allocas interleave; alias
        # analysis knows they cannot conflict, so each group can roll.
        src = """
define void @f(i32* %p, i32* %q) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %p0
  %q0 = getelementptr i32, i32* %q, i64 0
  store i32 2, i32* %q0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  %q1 = getelementptr i32, i32* %q, i64 1
  store i32 2, i32* %q1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %p2
  %q2 = getelementptr i32, i32* %q, i64 2
  store i32 2, i32* %q2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 1, i32* %p3
  %q3 = getelementptr i32, i32* %q, i64 3
  store i32 2, i32* %q3
  ret void
}
"""
        def transform(m):
            return roll(m)

        rolled, module = assert_transform_preserves(
            src,
            transform,
            "f",
            buffer_specs=[ints_to_bytes([0] * 4), ints_to_bytes([0] * 4)],
        )
        assert rolled >= 1


class TestDependenceDirection:
    def test_input_dependency_hoisted_before_loop(self):
        # A shared scale factor computed mid-block must end up in the
        # preheader.
        src = """
define void @f(i32 %x, i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  %scale = mul i32 %x, 3
  store i32 %scale, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 %scale, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 %scale, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 %scale, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 %scale, i32* %p4
  ret void
}
"""
        def transform(m):
            return roll(m)

        rolled, module = assert_transform_preserves(
            src, transform, "f", [7], buffer_specs=[ints_to_bytes([0] * 5)]
        )
        assert rolled == 1
        fn = module.get_function("f")
        preheader = fn.entry
        assert any(i.opcode == "mul" for i in preheader.instructions)

    def test_independent_tail_code_moves_after(self):
        src = """
declare i32 @pure(i32) readnone

define i32 @f(i32 %x, i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %p0
  %tail = call i32 @pure(i32 %x)
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 1, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 1, i32* %p4
  ret i32 %tail
}
"""
        def transform(m):
            return roll(m)

        rolled, module = assert_transform_preserves(
            src,
            transform,
            "f",
            [3],
            buffer_specs=[ints_to_bytes([0] * 5)],
            externs={"pure": lambda m, a: a[0] + 1},
        )
        assert rolled == 1

    def test_phi_in_block_stays_in_preheader(self):
        # The rolled block sits inside an outer loop; its phi must stay
        # at the top of the preheader.
        src = """
define void @f(i32 %n, i32* %p) {
entry:
  br label %outer

outer:
  %iter = phi i32 [ 0, %entry ], [ %iter.next, %outer ]
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 %iter, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 %iter, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 %iter, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 %iter, i32* %p3
  %p4 = getelementptr i32, i32* %p, i64 4
  store i32 %iter, i32* %p4
  %iter.next = add i32 %iter, 1
  %c = icmp slt i32 %iter.next, %n
  br i1 %c, label %outer, label %done

done:
  ret void
}
"""
        def transform(m):
            return roll(m)

        rolled, module = assert_transform_preserves(
            src, transform, "f", [3], buffer_specs=[ints_to_bytes([0] * 5)]
        )
        assert rolled == 1
        verify_module(module)


class TestScheduleStats:
    def test_rejections_are_counted(self):
        src = """
declare void @fence()

define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %p0
  call void @fence()
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  call void @fence()
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %p2
  ret void
}
"""
        # 3 stores vs 2 calls: group sizes differ so no joint; the
        # store group cannot cross the opaque calls.
        m = parse_module(src)
        stats = RolagStats()
        rolled = roll(m, stats=stats)
        assert rolled == 0
        assert stats.schedule_rejected >= 1


# --- attempt order: profitability before scheduling ------------------------


def _angha_modules(count):
    return [
        compile_c(cs.source)
        for cs in angha.generate_sources(count=count, seed=2022)
    ]


def _tsvc_modules():
    return [
        parse_module(print_module(tsvc.build_unrolled_kernel(name, factor)))
        for name in tsvc.kernel_names()
        for factor in (4, 8, 16)
    ]


def _split(modules, config):
    stats = RolagStats()
    for module in modules:
        roll_loops_in_module(module, config=config, stats=stats)
    return (
        stats.attempted, stats.rolled, stats.schedule_rejected,
        stats.unprofitable,
    )


@pytest.fixture
def attempt_log(monkeypatch):
    """Record every alignment graph the cost model judged (with its
    verdict) and every one the scheduling analysis saw, in order."""
    import repro.rolag.pipeline as pipeline

    log = {"estimated": [], "scheduled": []}
    real_estimate = pipeline.estimate
    real_schedule = pipeline.analyze_scheduling

    def estimate(ag, *args, **kwargs):
        report = real_estimate(ag, *args, **kwargs)
        log["estimated"].append((ag, report.profitable))
        return report

    def analyze_scheduling(ag, *args, **kwargs):
        log["scheduled"].append(ag)
        return real_schedule(ag, *args, **kwargs)

    monkeypatch.setattr(pipeline, "estimate", estimate)
    monkeypatch.setattr(pipeline, "analyze_scheduling", analyze_scheduling)
    return log


class TestAttemptOrder:
    """Sec. IV's pipeline with the cheaper rejection first: the cost
    model never reads the schedule, so without ``loop_aware`` only
    profitable candidates are scheduled."""

    def test_only_profitable_candidates_are_scheduled(self, attempt_log):
        stats = RolagStats()
        for module in _angha_modules(12):
            roll_loops_in_module(module, stats=stats)
        estimated = attempt_log["estimated"]
        profitable = [ag for ag, ok in estimated if ok]
        assert len(estimated) == stats.attempted
        assert stats.unprofitable == len(estimated) - len(profitable)
        assert stats.rolled > 0 and stats.unprofitable > 0
        assert [id(ag) for ag in attempt_log["scheduled"]] == [
            id(ag) for ag in profitable
        ]

    def test_loop_aware_schedules_every_attempt(self, attempt_log):
        stats = RolagStats()
        config = RolagConfig(loop_aware=True)
        for module in _angha_modules(12):
            roll_loops_in_module(module, config=config, stats=stats)
        assert stats.unprofitable > 0
        assert len(attempt_log["scheduled"]) == stats.attempted
        # Estimated after scheduling, and only when a schedule exists.
        scheduled = {id(ag) for ag in attempt_log["scheduled"]}
        assert all(id(ag) in scheduled for ag, _ in attempt_log["estimated"])
        assert len(attempt_log["estimated"]) == (
            stats.attempted - stats.schedule_rejected
        )

    def test_counter_split_on_the_angha_corpus(self):
        # attempted / rolled / schedule_rejected / unprofitable; with
        # scheduling first this read 1280 / 32 / 16 / 1232.
        assert _split(_angha_modules(40), RolagConfig(validate="off")) == (
            1280, 32, 0, 1248,
        )

    def test_counter_split_on_the_tsvc_batch(self):
        # Scheduling first read 317 / 245 / 25 / 47.
        assert _split(_tsvc_modules(), RolagConfig(fast_math=True)) == (
            317, 245, 12, 60,
        )
