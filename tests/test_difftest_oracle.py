"""Unit tests for the difftest subsystem itself: fuzzer determinism
and shape coverage, observation comparison, pass bisection, and the
driver/CLI integration points.
"""

import pytest

from repro.difftest import (
    FunctionFuzzer,
    FuzzConfig,
    Observation,
    bisect_pipeline,
    check_module_semantics,
    compare_observations,
    default_pipeline,
    make_argument_vectors,
    minimize_record,
    observe_call,
)
from repro.frontend import compile_c
from repro.ir import parse_module, print_module, verify_module


class TestFuzzer:
    def test_deterministic_per_seed_and_index(self):
        a = FunctionFuzzer(7).build(3)
        b = FunctionFuzzer(7).build(3)
        assert print_module(a[0]) == print_module(b[0])

    def test_distinct_across_indices(self):
        fuzzer = FunctionFuzzer(7)
        texts = {print_module(fuzzer.build(i)[0]) for i in range(10)}
        assert len(texts) > 1

    def test_output_verifies_and_round_trips(self):
        fuzzer = FunctionFuzzer(11)
        for index in range(20):
            module, fn_name = fuzzer.build(index)
            verify_module(module)
            text = print_module(module)
            reparsed = parse_module(text)
            verify_module(reparsed)
            assert print_module(reparsed) == text
            assert reparsed.get_function(fn_name) is not None

    def test_produces_rollable_material(self):
        # The generator is biased toward RoLAG shapes; over a small
        # corpus the pipeline must actually roll something.
        from repro.rolag import roll_loops_in_module

        fuzzer = FunctionFuzzer(0)
        rolled = 0
        for index in range(30):
            module, _ = fuzzer.build(index)
            rolled += roll_loops_in_module(module)
        assert rolled > 0


class TestObservation:
    TEXT = """
define i32 @f(i32 %a, i32 %b) {
entry:
  %q = sdiv i32 %a, %b
  ret i32 %q
}
"""

    def _observe(self, a, b):
        from repro.difftest.oracle import ArgumentVector

        module = parse_module(self.TEXT)
        return observe_call(module, "f", ArgumentVector((a, b)))

    def test_ok_and_trap_statuses(self):
        assert self._observe(10, 2).status == "ok"
        assert self._observe(10, 2).result == 5
        trapped = self._observe(10, 0)
        assert trapped.status == "trap"
        assert trapped.trap_kind == "div-by-zero"

    def test_observation_determinism(self):
        assert self._observe(9, 3) == self._observe(9, 3)

    def test_compare_rules(self):
        ok1 = Observation(status="ok", result=1)
        ok2 = Observation(status="ok", result=2)
        trap_a = Observation(status="trap", trap_kind="div-by-zero")
        trap_b = Observation(status="trap", trap_kind="oob")
        timeout = Observation(status="timeout")
        assert compare_observations(ok1, ok1) is None
        assert compare_observations(ok1, ok2) is not None
        assert compare_observations(ok1, trap_a) is not None
        # Both trapping: equal even across trap kinds (which fault
        # fires first is implementation-defined under rolling).
        assert compare_observations(trap_a, trap_b) is None
        # Timeouts are inconclusive, never mismatches.
        assert compare_observations(ok1, timeout) is None
        assert compare_observations(timeout, trap_a) is None

    def test_nan_matches_nan(self):
        nan = Observation(status="ok", result=float("nan"))
        assert compare_observations(nan, Observation(
            status="ok", result=float("nan"))) is None
        assert compare_observations(nan, Observation(
            status="ok", result=1.0)) is not None
        traced = Observation(status="ok", extern_trace=(
            ("sink", (1, float("nan"))),))
        assert compare_observations(traced, Observation(
            status="ok", extern_trace=(("sink", (1, float("nan"))),))) is None
        assert compare_observations(traced, Observation(
            status="ok", extern_trace=(("sink", (1, 0.0)),))) is not None
        assert compare_observations(traced, Observation(
            status="ok", extern_trace=(("sink", (float("nan"),)),))) is not None

    def test_vectors_match_signature_and_are_deterministic(self):
        module = parse_module(self.TEXT)
        fn = module.get_function("f")
        first = make_argument_vectors(fn, seed=5, count=4)
        second = make_argument_vectors(fn, seed=5, count=4)
        assert first == second
        assert all(len(v.values) == 2 for v in first)


class TestBisect:
    TEXT = """
define i32 @f(i32 %a) {
entry:
  %t = add i32 %a, 1
  %u = mul i32 %t, 2
  ret i32 %u
}
"""

    def _broken_stage(self, module):
        # A deliberately miscompiling "pass": constants bump by one.
        from repro.ir.instructions import BinaryOp
        from repro.ir.values import ConstantInt

        for fn in module.functions:
            for block in fn.blocks:
                for inst in block.instructions:
                    if isinstance(inst, BinaryOp) and inst.opcode == "mul":
                        rhs = inst.operands[1]
                        if isinstance(rhs, ConstantInt):
                            inst.set_operand(
                                1, ConstantInt(rhs.type, rhs.value + 1)
                            )
        return 1

    def test_names_the_guilty_pass(self):
        module = parse_module(self.TEXT)
        fn = module.get_function("f")
        vectors = make_argument_vectors(fn, seed=1, count=3)
        stages = [
            ("harmless", lambda m: 0),
            ("evil", self._broken_stage),
            ("harmless2", lambda m: 0),
        ]
        record = bisect_pipeline(self.TEXT, "f", stages, vectors)
        assert record is not None
        assert record.stage == "evil"
        assert "result" in record.detail
        # The repro text parses and carries the provenance comments.
        text = record.to_text()
        assert "guilty pass: evil" in text
        ir_only = "\n".join(
            line for line in text.splitlines() if not line.startswith(";")
        )
        verify_module(parse_module(ir_only))

    def test_clean_pipeline_reports_none(self):
        module = parse_module(self.TEXT)
        fn = module.get_function("f")
        vectors = make_argument_vectors(fn, seed=1, count=3)
        assert bisect_pipeline(self.TEXT, "f", default_pipeline(), vectors) is None

    def test_minimize_keeps_the_mismatch(self):
        padded = """
define i32 @f(i32 %a) {
entry:
  %noise1 = add i32 %a, 40
  %noise2 = xor i32 %a, 9
  %t = add i32 %a, 1
  %u = mul i32 %t, 2
  ret i32 %u
}
"""
        module = parse_module(padded)
        fn = module.get_function("f")
        vectors = make_argument_vectors(fn, seed=1, count=3)
        stages = [("evil", self._broken_stage)]
        record = bisect_pipeline(padded, "f", stages, vectors)
        assert record is not None
        minimized = minimize_record(record, stages)
        assert minimized.stage == "evil"
        assert "noise1" not in minimized.ir_before
        assert "noise2" not in minimized.ir_before


class TestCheckModuleSemantics:
    def test_equal_modules_pass(self):
        text = TestBisect.TEXT
        ok, details = check_module_semantics(
            parse_module(text), parse_module(text), seed=3
        )
        assert ok and details == []

    def test_detects_divergence(self):
        original = parse_module(TestBisect.TEXT)
        broken = parse_module(TestBisect.TEXT.replace("add i32 %a, 1",
                                                      "add i32 %a, 2"))
        ok, details = check_module_semantics(original, broken, seed=3)
        assert not ok
        assert details and "@f" in details[0]

    def test_nan_result_matches_itself(self):
        # 0/0 is NaN, and NaN != NaN: the oracle used to flag a
        # function against itself.
        module = compile_c("double f(double x) { return (x - x) / (x - x); }")
        assert check_module_semantics(module, module, seed=1) == (True, [])

    def test_missing_function_is_reported(self):
        original = parse_module(TestBisect.TEXT)
        empty = parse_module("define i32 @g(i32 %a) {\nentry:\n  ret i32 %a\n}\n")
        ok, details = check_module_semantics(original, empty, seed=3)
        assert not ok
        assert "missing" in details[0]


class TestDriverIntegration:
    C_SOURCE = "int f(int* p) { p[0]=1; p[1]=2; p[2]=3; p[3]=4; return 0; }\n"

    def test_check_semantics_rides_the_result(self, tmp_path):
        from repro.driver import FunctionJob, optimize_functions

        jobs = [FunctionJob(name=None, c_source=self.C_SOURCE)]
        report = optimize_functions(
            jobs, workers=1, check_semantics=True,
            cache_dir=str(tmp_path),
        )
        result = report.results[0]
        assert result.semantics_checked
        assert result.semantics_ok is True
        assert result.semantics_mismatches == []
        assert result.rolag_rolled >= 1

        # The verdict survives the memo cache round-trip.
        warm = optimize_functions(
            jobs, workers=1, check_semantics=True,
            cache_dir=str(tmp_path),
        )
        assert warm.stats.cache_hits == 1
        assert warm.results[0].semantics_ok is True
        assert warm.results[0].semantics_checked

        # An unchecked request must not be served the checked entry's
        # key (and vice versa): different key, so it recomputes.
        unchecked = optimize_functions(
            jobs, workers=1, check_semantics=False,
            cache_dir=str(tmp_path),
        )
        assert unchecked.stats.cache_hits == 0
        assert unchecked.results[0].semantics_checked is False
        assert unchecked.results[0].semantics_ok is None

    def test_cli_difftest_subcommand(self, capsys):
        from repro.cli import main

        code = main(["difftest", "--seed", "3", "--count", "5", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no unexplained mismatches" in out
