"""Transactional pass execution and the online validation gate.

Everything here exercises the real production ladder: snapshots are
captured, passes run, and commits are gated exactly as in a validated
corpus run.  The storm tests replay the ISSUE acceptance scenario --
``corrupt-ir`` injected at every pass exit -- and hold the driver to
the gate's contract with :func:`repro.validation.evidence_check`.
"""

import dataclasses
import json
import os
import zlib

import pytest

import repro.difftest.runner as runner
from repro.bench import angha
from repro.difftest.oracle import ArgumentVector, Observation
from repro.difftest.parity import check_backend_parity
from repro.difftest.runner import first_backend_divergence
from repro.driver import FunctionJob, optimize_functions
from repro.driver.core import optimize_one
from repro.faultinject import (
    DeadlineExceeded,
    FaultPlan,
    active_plan,
    clear_plan,
    deadline_scope,
)
from repro.frontend import compile_c
from repro.ir import (
    ConstantInt,
    FunctionSnapshot,
    I32,
    parse_module,
    print_function,
    print_module,
    verify_function,
)
from repro.rolag import RolagConfig, RolagStats, roll_loops_in_function
from repro.transforms.pass_manager import PassError, default_cleanup_pipeline
from repro.transforms.txn import TransactionalPassManager
from repro.validation import (
    FAILURE_KINDS,
    GuardReport,
    Validator,
    evidence_check,
)

pytestmark = [pytest.mark.guard, pytest.mark.usefixtures("stamp_checker")]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


SRC = """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  ret i32 %b
}
"""

TWO_BLOCK_SRC = """
define i32 @g(i32 %x) {
entry:
  %a = add i32 %x, 1
  br label %exit
exit:
  %b = mul i32 %a, 2
  ret i32 %b
}
"""


def _fn(src=SRC, name="f"):
    module = parse_module(src)
    return module, module.get_function(name)


def bump_constant(fn):
    """Verifier-clean but semantics-changing: the classic miscompile."""
    for block in fn.blocks:
        for inst in block.instructions:
            for index, op in enumerate(inst.operands):
                if isinstance(op, ConstantInt):
                    inst.set_operand(
                        index, ConstantInt(op.type, op.value + 1)
                    )
                    return 1
    return 0


def break_ssa(fn):
    """Malformed output: hoist a user above its definition."""
    insts = fn.blocks[0].instructions
    insts[0], insts[1] = insts[1], insts[0]
    return 1


def explode(fn):
    raise ZeroDivisionError("kaboom")


class TestFunctionSnapshot:
    def test_restore_roundtrip(self):
        module, fn = _fn()
        before = print_function(fn)
        snapshot = FunctionSnapshot(fn)
        assert not snapshot.changed()
        bump_constant(fn)
        break_ssa(fn)
        assert snapshot.changed()
        snapshot.restore()
        assert print_function(fn) == before
        verify_function(fn)
        assert not snapshot.changed()

    def test_identity_preserved_across_restore(self):
        module, fn = _fn()
        block_ids = [id(b) for b in fn.blocks]
        inst_ids = [
            id(i) for b in fn.blocks for i in b.instructions
        ]
        snapshot = FunctionSnapshot(fn)
        first = fn.blocks[0].instructions[0]
        first.replace_all_uses_with(fn.arguments[0])
        first.erase_from_parent()
        snapshot.restore()
        assert [id(b) for b in fn.blocks] == block_ids
        assert [
            id(i) for b in fn.blocks for i in b.instructions
        ] == inst_ids
        verify_function(fn)

    def test_touched_blocks_scoped_to_the_edit(self):
        module, fn = _fn(TWO_BLOCK_SRC, "g")
        snapshot = FunctionSnapshot(fn)
        assert snapshot.touched_blocks() == []
        exit_block = fn.blocks[1]
        exit_block.instructions[0].set_operand(1, ConstantInt(I32, 3))
        assert snapshot.touched_blocks() == [exit_block]
        assert snapshot.changed()

    def test_added_globals_rolled_back(self):
        module, fn = _fn()
        snapshot = FunctionSnapshot(fn)
        module.add_global("__rolag_test", I32)
        assert snapshot.changed()
        snapshot.restore()
        assert module.get_global("__rolag_test") is None


class TestTransactionalRollback:
    def test_semantic_corruption_rolled_back_at_safe(self):
        module, fn = _fn()
        before = print_function(fn)
        validator = Validator("safe", seed=7)
        pm = TransactionalPassManager(verify=False, validator=validator)
        pm.add("evil", bump_constant)
        assert pm.run(module) == 0
        assert print_function(fn) == before
        (report,) = validator.reports
        assert report.pass_name == "evil"
        assert report.function == "f"
        assert report.failure_kind == "semantics"
        assert report.level == "safe"
        assert "@f" in report.ir_diff and "+" in report.ir_diff

    def test_fast_level_misses_semantic_corruption(self):
        # The ladder is honest about what each rung buys: a
        # verifier-clean miscompile sails through `fast`.
        module, fn = _fn()
        before = print_function(fn)
        validator = Validator("fast")
        pm = TransactionalPassManager(verify=False, validator=validator)
        pm.add("evil", bump_constant)
        assert pm.run(module) == 1
        assert print_function(fn) != before
        assert validator.reports == []

    def test_malformed_ir_rolled_back_at_fast(self):
        module, fn = _fn()
        before = print_function(fn)
        validator = Validator("fast")
        pm = TransactionalPassManager(verify=False, validator=validator)
        pm.add("breaker", break_ssa)
        assert pm.run(module) == 0
        assert print_function(fn) == before
        (report,) = validator.reports
        assert report.failure_kind == "verifier"
        assert "dominate" in report.detail

    def test_raising_pass_degrades_one_decision(self):
        module, fn = _fn()
        before = print_function(fn)
        ran = []

        def witness(fn):
            ran.append(fn.name)
            return 0

        validator = Validator("fast")
        pm = TransactionalPassManager(verify=False, validator=validator)
        pm.add("explode", explode).add("witness", witness)
        assert pm.run(module) == 0
        assert ran == ["f"]  # the pipeline continued past the crash
        (report,) = validator.reports
        assert report.failure_kind == "exception"
        assert "ZeroDivisionError" in report.detail
        assert print_function(fn) == before

    def test_level_off_keeps_the_plain_contract(self):
        module, fn = _fn()
        pm = TransactionalPassManager(
            verify=False, validator=Validator("off")
        )
        pm.add("explode", explode)
        with pytest.raises(PassError):
            pm.run(module)

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown validation level"):
            Validator("paranoid")


#: Four stores RoLAG rolls into one loop (one block decision) and two
#: functions for the pass-level sites.
ROLLABLE_SRC = """
define void @st(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 1, i32* %p0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p1
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 1, i32* %p2
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 1, i32* %p3
  ret void
}
""" + SRC


class _SiteLog(FaultPlan):
    """A fault plan that also records every site visit, in order."""

    def __init__(self, spec=""):
        parsed = FaultPlan.parse(spec)
        super().__init__(specs=parsed.specs, seed=parsed.seed)
        self.log = []

    def visit(self, site, data=None, ir_fn=None):
        self.log.append(site)
        return super().visit(site, data=data, ir_fn=ir_fn)


def _run_cleanup(gate):
    module = parse_module(ROLLABLE_SRC)
    pm = default_cleanup_pipeline()
    pm.validator = gate
    pm.run(module)
    return gate.reports if gate is not None else []


def _run_reroll(level):
    def run(gate):
        result = optimize_one(
            FunctionJob(name=None, ir_text=ROLLABLE_SRC),
            RolagConfig(validate=level),
        )
        return [GuardReport.from_json_dict(d) for d in result.guard_reports]

    return run


def _run_rolag(gate):
    module = parse_module(ROLLABLE_SRC)
    stats = RolagStats()
    roll_loops_in_function(
        module.get_function("st"), RolagConfig(), stats=stats, validator=gate
    )
    return [GuardReport.from_json_dict(d) for d in stats.guard_reports]


#: (id, site, gated, run, PassError name / guard decision).  ``run``
#: takes the gate to hand over (``None`` or a fresh ``fast`` one; the
#: reroll stage builds its own from the config) and returns the
#: guard reports filed.
BOUNDARY_SUBJECTS = [
    ("cleanup-pass", "pipeline.pass", False, _run_cleanup, "mem2reg"),
    ("cleanup-pass-gated", "pipeline.pass", True, _run_cleanup, "mem2reg"),
    ("reroll-validate-off", "pipeline.pass", False, _run_reroll("off"),
     "reroll"),
    ("reroll-validate-fast", "pipeline.pass", True, _run_reroll("fast"),
     "reroll"),
    ("rolag-decision", "rolag.roll", False, _run_rolag, "rolag"),
    ("rolag-decision-gated", "rolag.roll", True, _run_rolag,
     "rolag:entry"),
]


@pytest.mark.fault
@pytest.mark.parametrize(
    "site, gated, run, name",
    [subject[1:] for subject in BOUNDARY_SUBJECTS],
    ids=[subject[0] for subject in BOUNDARY_SUBJECTS],
)
class TestOnePassBoundary:
    """Cleanup passes, the reroll stage of ``optimize_one`` (validation
    off and on) and RoLAG block decisions share one boundary contract."""

    def _go(self, run, gated, plan):
        with active_plan(plan):
            return run(Validator("fast") if gated else None)

    def test_site_fires_before_its_exit(self, site, gated, run, name):
        plan = _SiteLog()
        self._go(run, gated, plan)
        visits = [s for s in plan.log if s in (site, site + ".exit")]
        assert visits and visits == [site, site + ".exit"] * (len(visits) // 2)

    def test_raising_step(self, site, gated, run, name):
        plan = _SiteLog(f"{site}:raise")
        if not gated:
            with pytest.raises(PassError) as caught:
                self._go(run, gated, plan)
            assert caught.value.pass_name == name
            return
        reports = self._go(run, gated, plan)
        (report,) = [r for r in reports if r.failure_kind == "exception"]
        assert report.pass_name == name
        assert "InjectedFault" in report.detail

    def test_deadline_passes_through_unwrapped(self, site, gated, run, name):
        plan = _SiteLog(f"{site}:hang")
        with deadline_scope(60.0):
            with pytest.raises(DeadlineExceeded):
                self._go(run, gated, plan)


TRAPPING_SRC = """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %d = sdiv i32 %a, 0
  ret i32 %d
}
"""


def commute(fn):
    """Verifier-clean and semantics-preserving: swap the add's operands."""
    inst = fn.blocks[0].instructions[0]
    lhs, rhs = inst.operands
    inst.set_operand(0, rhs)
    inst.set_operand(1, lhs)
    return 1


def _fake_compiled(monkeypatch, rewrite):
    """Every compiled-backend observation passes through ``rewrite``."""
    observe = runner.observe_call

    def faked(*args, **kwargs):
        observation = observe(*args, **kwargs)
        if kwargs.get("evaluator") == "compiled":
            return rewrite(observation, kwargs["step_limit"])
        return observation

    monkeypatch.setattr(runner, "observe_call", faked)


def _other_trap_kind(observation, step_limit):
    if observation.status != "trap":
        return observation
    kind = "oob" if observation.trap_kind != "oob" else "unreachable"
    return dataclasses.replace(observation, trap_kind=kind)


def _timed_out(observation, step_limit):
    if observation.status != "ok":
        return observation
    return Observation(status="timeout", steps=step_limit + 1)


class TestStrictParity:
    """``strict`` holds every candidate to full Observation equality
    across backends: a trap-kind or timeout-only divergence, which the
    semantic comparison calls equivalent, still rolls back."""

    @pytest.mark.parametrize(
        "src, rewrite, field",
        [
            (TRAPPING_SRC, _other_trap_kind, "trap_kind"),
            (SRC, _timed_out, "status"),
        ],
        ids=["trap-kind", "timeout"],
    )
    def test_backend_divergence_rolls_back(
        self, monkeypatch, src, rewrite, field
    ):
        module, fn = _fn(src)
        before = print_function(fn)
        validator = Validator("strict", seed=7)
        _fake_compiled(monkeypatch, rewrite)
        pm = TransactionalPassManager(verify=False, validator=validator)
        pm.add("commute", commute)
        assert pm.run(module) == 0
        assert print_function(fn) == before
        (report,) = validator.reports
        assert report.failure_kind == "parity"
        assert "interp vs compiled" in report.detail
        assert f"{field}: interp=" in report.detail

    def test_same_candidate_commits_without_the_fake(self):
        module, fn = _fn(TRAPPING_SRC)
        validator = Validator("strict", seed=7)
        pm = TransactionalPassManager(verify=False, validator=validator)
        pm.add("commute", commute)
        assert pm.run(module) == 1
        assert validator.reports == []

    @pytest.mark.parametrize(
        "rewrite, field",
        [(_other_trap_kind, "trap_kind"), (_timed_out, "status")],
        ids=["trap-kind", "timeout"],
    )
    def test_parity_sweep_reports_the_same_divergence(
        self, monkeypatch, rewrite, field
    ):
        _fake_compiled(monkeypatch, rewrite)
        mismatches = check_backend_parity(0, 12, run_pipeline=False)
        assert mismatches
        assert all(
            f"interp vs compiled: {field}: interp=" in m for m in mismatches
        )


    #: Infinity minus infinity: a NaN built by arithmetic, so each
    #: backend returns its own NaN object.
    NAN_SRC = """
define double @f(double %x) {
entry:
  %a = fmul double %x, 1.0e+308
  %b = fmul double %a, 1.0e+308
  %c = fsub double %b, %b
  ret double %c
}
"""

    def test_nan_result_is_not_a_divergence(self):
        module, _ = _fn(self.NAN_SRC)
        assert first_backend_divergence(
            module, "f", [ArgumentVector((1.0,))], step_limit=1000
        ) is None

    def test_changed_candidate_returning_nan_commits(self):
        module, fn = _fn(self.NAN_SRC)
        validator = Validator("strict", seed=7)
        pm = TransactionalPassManager(verify=False, validator=validator)
        pm.add("commute", commute)
        assert pm.run(module) == 1
        assert validator.reports == []
        assert fn.blocks[0].instructions[0].operands[1].name == "x"


class TestGuardBundles:
    def test_bundle_written_and_self_describing(self, tmp_path):
        module, fn = _fn()
        guard_dir = str(tmp_path / "guards")
        validator = Validator("safe", guard_dir=guard_dir, seed=1)
        pm = TransactionalPassManager(verify=False, validator=validator)
        pm.add("evil", bump_constant)
        pm.run(module)
        (report,) = validator.reports
        assert report.repro_path and os.path.exists(report.repro_path)
        assert os.path.basename(report.repro_path).startswith("f_evil_")
        repro_text = open(report.repro_path).read()
        assert "@f" in repro_text
        sidecar = report.repro_path[:-3] + ".json"
        data = json.loads(open(sidecar).read())
        assert data["pass_name"] == "evil"
        assert data["function"] == "f"
        assert data["failure_kind"] == "semantics"
        summary = GuardReport.from_json_dict(data).summary()
        assert "'evil'" in summary and "@f" in summary
        assert report.repro_path in summary


class TestEvidenceCheck:
    def test_identical_modules_pass(self):
        ok, details = evidence_check(
            parse_module(SRC), parse_module(SRC), seed=7
        )
        assert ok and details == []

    def test_detects_a_miscompile(self):
        module, fn = _fn()
        bump_constant(fn)
        ok, details = evidence_check(parse_module(SRC), module, seed=7)
        assert not ok
        assert details and "@f" in details[0]


#: The ISSUE acceptance plan: semantics-changing corruption at *every*
#: pass exit and every RoLAG rolling decision, unlimited firings.
STORM_PLAN = (
    "pipeline.pass.exit:corrupt-irx*;rolag.roll.exit:corrupt-irx*;seed=13"
)


def _ir_jobs(count, seed=2022):
    # Precompiled IR text keeps the frontend out of the blast radius
    # and gives the evidence oracle a parseable "before" module.
    return [
        FunctionJob(
            name=cs.name,
            ir_text=print_module(compile_c(cs.source, cs.name)),
            metadata=(("family", cs.family),),
        )
        for cs in angha.generate_sources(count=count, seed=seed)
    ]


def _evidence(job, result, config):
    vector_seed = zlib.crc32(job.text.encode("utf-8")) & 0x7FFFFFFF
    return evidence_check(
        parse_module(job.text),
        parse_module(result.optimized_ir),
        seed=vector_seed,
        vectors=config.validate_vectors,
        step_limit=config.validate_step_limit,
        evaluator=config.validate_evaluator,
    )


@pytest.mark.fault
class TestValidatedStorm:
    """Corrupt-ir storm: validated runs commit nothing wrong; the same
    storm unvalidated provably miscompiles (the gate is load-bearing)."""

    def test_safe_storm_commits_no_corruption(self, tmp_path):
        jobs = _ir_jobs(3)
        config = RolagConfig(
            validate="safe", guard_dir=str(tmp_path / "guards")
        )
        report = optimize_functions(
            jobs, config, workers=1, retries=0, retry_backoff=0.0,
            fault_plan=STORM_PLAN,
        )
        assert not any(r.failed for r in report.results)
        assert report.stats.guard_failures > 0
        assert report.stats.guard_failures == sum(
            len(r.guard_reports) for r in report.results
        )
        for job, result in zip(jobs, report.results):
            ok, details = _evidence(job, result, config)
            assert ok, details
        guards = [
            GuardReport.from_json_dict(data)
            for result in report.results
            for data in result.guard_reports
        ]
        assert all(g.failure_kind in FAILURE_KINDS for g in guards)
        with_repro = [g for g in guards if g.repro_path]
        assert with_repro
        for guard in with_repro:
            assert os.path.exists(guard.repro_path)

    def test_same_storm_unvalidated_miscompiles(self):
        jobs = _ir_jobs(3)
        config = RolagConfig()  # validate="off"
        report = optimize_functions(
            jobs, config, workers=1, retries=0, retry_backoff=0.0,
            fault_plan=STORM_PLAN,
        )
        assert report.stats.guard_failures == 0
        wrong = sum(
            1
            for job, result in zip(jobs, report.results)
            if not result.failed and not _evidence(job, result, config)[0]
        )
        assert wrong >= 1

    def test_validate_level_splits_the_cache(self, tmp_path):
        jobs = _ir_jobs(1)
        cache_dir = str(tmp_path / "cache")
        first = optimize_functions(
            jobs, RolagConfig(), workers=1, cache_dir=cache_dir
        )
        assert first.stats.cache_writes == 1
        # A validated rerun must recompute: a result that was never
        # gated is not evidence for a validated configuration.
        second = optimize_functions(
            jobs, RolagConfig(validate="fast"), workers=1,
            cache_dir=cache_dir,
        )
        assert second.stats.cache_hits == 0


@pytest.mark.fault
class TestGuardContextPropagation:
    """Satellite: GuardReport context (pass, function, repro path)
    survives the trip through driver batches and the CLI summary."""

    def _assert_context(self, report):
        assert report.stats.guard_failures > 0
        guards = [
            GuardReport.from_json_dict(data)
            for result in report.results
            for data in result.guard_reports
        ]
        assert guards
        for guard in guards:
            assert guard.pass_name and guard.function
            line = guard.summary()
            assert guard.pass_name in line
            assert f"@{guard.function}" in line
            if guard.repro_path:
                assert os.path.exists(guard.repro_path)
                assert guard.repro_path in line

    def test_serial_batch_carries_guard_context(self, tmp_path):
        jobs = _ir_jobs(2)
        config = RolagConfig(
            validate="safe", guard_dir=str(tmp_path / "guards")
        )
        report = optimize_functions(
            jobs, config, workers=1, retries=0, retry_backoff=0.0,
            fault_plan=STORM_PLAN,
        )
        self._assert_context(report)

    @pytest.mark.parallel
    def test_parallel_batch_carries_guard_context(self, tmp_path):
        jobs = _ir_jobs(4)
        config = RolagConfig(
            validate="safe", guard_dir=str(tmp_path / "guards")
        )
        report = optimize_functions(
            jobs, config, workers=2, retries=0, retry_backoff=0.0,
            fault_plan=STORM_PLAN,
        )
        self._assert_context(report)

    def test_cli_batch_summary_names_pass_function_and_repro(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        paths = []
        for cs in angha.generate_sources(count=2, seed=2022):
            path = tmp_path / f"{cs.name}.c"
            path.write_text(cs.source)
            paths.append(str(path))
        guard_dir = str(tmp_path / "guards")
        code = main(paths + [
            "--roll", "--jobs", "1", "--retries", "0",
            "--validate", "safe", "--guard-dir", guard_dir,
            "--fault-plan", STORM_PLAN,
        ])
        captured = capsys.readouterr()
        # Rollbacks are the gate working, not a run failure.
        assert code == 0, captured.err
        assert "guard rollbacks:" in captured.out
        assert "; GUARD" in captured.err
        assert "rolled back" in captured.err
        assert paths[0] in captured.err or paths[1] in captured.err
        assert os.path.isdir(guard_dir) and os.listdir(guard_dir)
