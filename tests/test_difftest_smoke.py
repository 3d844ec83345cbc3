"""Tier-1 differential-testing smoke: a bounded fuzzing campaign.

200 fuzzed functions, fixed seed, three vectors each, through the full
cleanup + reroll + RoLAG pipeline.  This is the standing guard against
miscompiles; the heavyweight campaigns run via ``repro difftest``.
Budgeted to stay well under ten seconds.
"""

import time

import pytest

import repro.difftest.runner as runner
from repro.difftest import FunctionFuzzer, make_argument_vectors, run_difftest
from repro.ir import parse_module, print_module
from repro.rolag import RolagConfig

SMOKE_SEED = 0
SMOKE_COUNT = 200

#: ``run_difftest(seed=0, count=200).summary()``.
SUMMARY_SEED0 = """\
difftest: 200 cases, seed 0, 3 vectors/case
  rolled loops: 171
  cases observing a trap: 25
  inconclusive (timeout) observations: 0
  mismatches: 0 | unexplained: 0 | errors: 0
  OK: no unexplained mismatches"""

#: The seed-1 campaign with loop-aware rolling and fast math, observed
#: on the compiled backend.
SUMMARY_SEED1_COMPILED = """\
difftest: 200 cases, seed 1, 3 vectors/case
  rolled loops: 144
  cases observing a trap: 31
  inconclusive (timeout) observations: 0
  mismatches: 0 | unexplained: 0 | errors: 0
  OK: no unexplained mismatches"""


@pytest.mark.difftest
def test_smoke_campaign_finds_no_mismatches():
    start = time.monotonic()
    report = run_difftest(seed=SMOKE_SEED, count=SMOKE_COUNT)
    elapsed = time.monotonic() - start

    assert report.ok, report.summary()
    assert report.summary() == SUMMARY_SEED0
    assert report.mismatches == []
    assert report.unexplained == []
    # The campaign genuinely exercises the transform under test ...
    assert report.rolled_loops > 0
    # ... and the trap-preservation half of the oracle.
    assert report.trap_cases > 0
    assert elapsed < 10.0, f"smoke campaign took {elapsed:.1f}s"


@pytest.mark.difftest
def test_compiled_loop_aware_campaign_summary_is_pinned():
    report = run_difftest(
        seed=1,
        count=200,
        config=RolagConfig(loop_aware=True, fast_math=True),
        evaluator="compiled",
    )
    assert report.summary() == SUMMARY_SEED1_COMPILED


@pytest.mark.difftest
def test_clean_case_observes_each_vector_once(monkeypatch):
    seen = []
    observe = runner.observe_call

    def recording(module, fn_name, vector, **kwargs):
        seen.append((print_module(module), vector))
        return observe(module, fn_name, vector, **kwargs)

    monkeypatch.setattr(runner, "observe_call", recording)
    report = run_difftest(seed=0, count=3)
    assert report.ok and report.rolled_loops
    fuzzer = FunctionFuzzer(0)
    for index in range(3):
        module, fn_name = fuzzer.build(index)
        draw = make_argument_vectors(
            module.get_function(fn_name), runner.case_seed(0, index), 3
        )
        original = print_module(parse_module(print_module(module)))
        case, seen = seen[:6], seen[6:]
        (transformed,) = {text for text, _ in case[3:]}
        assert case == [(original, v) for v in draw] + [
            (transformed, v) for v in draw
        ]
    assert seen == []


# --------------------------------------------------------------------------
# Fault injection: campaigns degrade to structured reports, never
# tracebacks.
# --------------------------------------------------------------------------

from repro.difftest.bisect import bisect_pipeline
from repro.difftest.oracle import ArgumentVector
from repro.difftest.runner import check_module_semantics
from repro.faultinject import FaultPlan, active_plan, clear_plan
from repro.frontend import compile_c


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


@pytest.mark.fault
class TestDifftestUnderFaults:
    def test_evaluator_fault_becomes_report_error(self):
        plan = FaultPlan.parse("difftest.observe:raise@3x*")
        with active_plan(plan):
            report = run_difftest(seed=0, count=5)
        assert not report.ok
        assert report.errors
        assert any("InjectedFault" in note for note in report.errors)
        # The campaign still completed and can describe itself.
        assert "ERROR" in report.summary()
        assert report.mismatches == []

    def test_case_deadline_is_a_structured_error(self):
        # The 5th observation stalls "forever" in virtual time; the
        # per-case deadline catches it and the campaign moves on.
        plan = FaultPlan.parse("difftest.observe:hang@5")
        with active_plan(plan):
            report = run_difftest(seed=0, count=5, case_deadline=2.0)
        assert not report.ok
        assert any("case deadline exceeded" in n for n in report.errors)
        # Only the faulted case errored.
        assert len(report.errors) == 1

    def test_fault_free_plan_changes_nothing(self):
        plan = FaultPlan.parse("unmatched.site:raise@1x*")
        with active_plan(plan):
            report = run_difftest(seed=0, count=10)
        assert report.ok, report.summary()

    def test_bisector_names_a_raising_stage(self):
        ir_text = print_module(compile_c("int f(int x) { return x + 2; }"))

        def boom(module):
            raise RuntimeError("injected stage failure")

        record = bisect_pipeline(
            ir_text,
            "f",
            stages=[("identity", lambda m: None), ("boom", boom)],
            vectors=[ArgumentVector(values=(3,))],
            origin="unit",
        )
        assert record is not None
        assert record.stage == "boom"
        assert record.actual.trap_kind == "stage-error"
        assert "stage raised: RuntimeError" in record.detail

    def test_check_module_semantics_reports_evaluator_error(self):
        source = "int g(int x) { return x * 3; }"
        original = compile_c(source)
        transformed = compile_c(source)
        plan = FaultPlan.parse("difftest.observe:raise@1")
        with active_plan(plan):
            ok, details = check_module_semantics(
                original, transformed, seed=1
            )
        assert not ok
        assert any("evaluator error" in d for d in details)
