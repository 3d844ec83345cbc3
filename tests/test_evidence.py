"""One evidence set per job: the original is observed once.

``optimize_one`` parses the job once and captures the original
module's observations once, before any pass; the job's one validation
gate (over both stages) and the oracle check their candidates against
that one :class:`repro.difftest.runner.Evidence`.
The gate reads the first ``validate_vectors`` of the draw; the oracle
reads all of it.  These tests count parses and observations, pin the
draw every consumer reads, and hold the offline replays
(:func:`repro.validation.evidence_check`, ``perfbench/check.py``) to the
same vectors.
"""

import pytest

import perfbench.check
import repro.difftest.runner as runner
from repro.bench import angha
from repro.difftest.oracle import make_argument_vectors, observe_call
from repro.difftest.runner import (
    ORACLE_STEP_LIMIT,
    ORACLE_VECTORS,
    Evidence,
    check_module_semantics,
)
from repro.driver import FunctionJob, optimize_one
from repro.driver import core
from repro.frontend import compile_c
from repro.ir import parse_module, print_module
from repro.rolag import RolagConfig
from repro.transforms.txn import TransactionalPassManager
from repro.validation import Validator, evidence_check, evidence_seed
from tests.test_txn import SRC, bump_constant

pytestmark = [pytest.mark.guard, pytest.mark.usefixtures("stamp_checker")]


def _tsvc_job():
    from perfbench.workloads import tsvc_jobs

    return tsvc_jobs(1, kernels=1)[0]  # s000, unrolled 4: both stages roll


def _angha_job():
    cs = angha.generate_sources(count=1, seed=2022)[0]
    return FunctionJob(
        name=cs.name, ir_text=print_module(compile_c(cs.source, cs.name))
    )


@pytest.fixture
def observations(monkeypatch):
    """Every ``(printed module, fn, vector, step_limit, evaluator)``
    the evidence path observes."""
    seen = []
    observe = runner.observe_call

    def recording(module, fn_name, vector, **kwargs):
        seen.append((
            print_module(module), fn_name, vector, kwargs["step_limit"],
            kwargs.get("evaluator", "interp"),
        ))
        return observe(module, fn_name, vector, **kwargs)

    monkeypatch.setattr(runner, "observe_call", recording)
    return seen


def test_optimize_one_parses_once_and_observes_the_original_once(
    monkeypatch, observations
):
    job = _tsvc_job()
    parses = []
    parse = core.parse_module

    def counting(text):
        parses.append(text)
        return parse(text)

    monkeypatch.setattr(core, "parse_module", counting)
    result = optimize_one(
        job, RolagConfig(fast_math=True, validate="safe"),
        check_semantics=True, evaluator="compiled",
    )
    assert result.semantics_ok and result.llvm_rolled and result.rolag_rolled
    assert parses == [job.ir_text]
    fn = parse_module(job.ir_text).get_function(job.name)
    draw = make_argument_vectors(fn, evidence_seed(job.text), ORACLE_VECTORS)
    # Both candidates changed, so only the capture observes the
    # original's text -- not the oracle, and not RoLAG's gate on the
    # module the baseline was rolled back from: once per distinct
    # vector of the draw.  A TSVC kernel takes no arguments, so its
    # draw is one empty vector three times, run once.
    assert len(draw) == ORACLE_VECTORS and len(set(draw)) == 1
    of_original = [
        (name, vector, limit)
        for text, name, vector, limit, _ in observations
        if text == job.ir_text
    ]
    assert of_original == [
        (job.name, vector, ORACLE_STEP_LIMIT) for vector in dict.fromkeys(draw)
    ]


def test_gate_vectors_are_a_prefix_of_the_oracle_draw(observations):
    job = _angha_job()
    config = RolagConfig(validate="safe")
    result = optimize_one(job, config, check_semantics=True)
    assert result.semantics_ok and result.rolag_rolled
    fn = parse_module(job.ir_text).get_function(job.name)
    draw = make_argument_vectors(fn, evidence_seed(job.text), ORACLE_VECTORS)
    gate = {
        vector
        for _, _, vector, limit, _ in observations
        if limit == config.validate_step_limit
    }
    oracle = {
        vector
        for _, _, vector, limit, _ in observations
        if limit == ORACLE_STEP_LIMIT
    }
    assert gate == set(draw[: config.validate_vectors])
    assert oracle == set(draw)


def test_a_safe_job_observes_only_with_the_oracles_backend(observations):
    job = _tsvc_job()
    config = RolagConfig(fast_math=True, validate="safe")
    result = optimize_one(
        job, config, check_semantics=True, evaluator="compiled"
    )
    assert result.semantics_ok and result.llvm_rolled and result.rolag_rolled
    capture = [o for o in observations if o[0] == job.ir_text]
    gate = [o for o in observations if o[3] == config.validate_step_limit]
    oracle = [
        o for o in observations
        if o[0] != job.ir_text and o[3] == ORACLE_STEP_LIMIT
    ]
    assert capture and gate
    # The oracle asks for the states the gate just observed, with the
    # same backend: the job's memo answers it, so it runs nothing.  An
    # oracle asking another backend would miss and show up here.
    assert oracle == []
    assert {o[4] for o in observations} == {"compiled"}


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_without_the_oracle_the_gate_keeps_validate_evaluator(
    observations, backend
):
    job = _tsvc_job()
    config = RolagConfig(
        fast_math=True, validate="safe", validate_evaluator=backend
    )
    result = optimize_one(job, config, evaluator="compiled")
    assert result.rolag_rolled and not result.guard_reports
    assert any(o[0] != job.ir_text for o in observations)
    assert {o[4] for o in observations} == {backend}


def test_the_guard_minimizer_replays_on_the_evidence_backend(
    monkeypatch, tmp_path
):
    import repro.validation.gate as gate

    backends = []
    minimize = gate.minimize_record

    def recording(record, stages, **kwargs):
        backends.append(kwargs["evaluator"])
        return minimize(record, stages, **kwargs)

    monkeypatch.setattr(gate, "minimize_record", recording)
    module = parse_module(SRC)
    evidence = Evidence.capture(
        module, seed=7, vectors=2, step_limit=50_000, evaluator="compiled"
    )
    validator = Validator.from_config(
        RolagConfig(validate="safe", guard_dir=str(tmp_path)),
        evidence=evidence,
    )
    assert validator.evaluator == "compiled"
    pm = TransactionalPassManager(verify=False, validator=validator)
    pm.add("evil", bump_constant)
    pm.run(module)
    (report,) = validator.reports
    assert report.failure_kind == "semantics"
    assert backends == ["compiled"]


def test_evidence_check_rederives_the_vector_a_guard_bundle_records(
    tmp_path,
):
    module = parse_module(SRC)
    fn = module.get_function("f")
    validator = Validator("safe", guard_dir=str(tmp_path), seed=7)
    pm = TransactionalPassManager(verify=False, validator=validator)
    pm.add("evil", bump_constant)
    pm.run(module)
    (report,) = validator.reports
    recorded = [
        line
        for line in open(report.repro_path).read().splitlines()
        if line.startswith("; vector: ")
    ]
    first = make_argument_vectors(fn, 7, ORACLE_VECTORS)[0].describe()
    assert recorded == [f"; vector: {first}"]

    bumped = parse_module(SRC)
    bump_constant(bumped.get_function("f"))
    ok, details = evidence_check(parse_module(SRC), bumped, seed=7)
    assert not ok
    assert details[0].startswith(f"@f {first}: ")


def test_check_module_semantics_and_perfbench_share_the_draw(
    monkeypatch, observations
):
    job = _angha_job()
    optimized = optimize_one(job).optimized_ir
    original = parse_module(job.text)
    seed = perfbench.check.vector_seed(job)
    ok, _ = check_module_semantics(
        original, parse_module(optimized), seed=seed
    )
    assert ok
    draw = make_argument_vectors(
        original.get_function(job.name), seed, ORACLE_VECTORS
    )
    # Each vector of the draw, once on the original and once on the
    # candidate.
    assert sorted(
        ((v, limit) for _, _, v, limit, _ in observations), key=repr
    ) == sorted([(vector, ORACLE_STEP_LIMIT) for vector in draw] * 2, key=repr)

    stepped = []
    observe = perfbench.check.observe_call

    def recording(module, fn_name, vector, **kwargs):
        stepped.append(vector)
        return observe(module, fn_name, vector, **kwargs)

    monkeypatch.setattr(perfbench.check, "observe_call", recording)
    del observations[:]
    verdict = perfbench.check._check_one(job, optimized)
    assert verdict[0] and verdict[1] > 0
    verdict_vectors = [v for _, _, v, _, _ in observations]
    assert sorted(verdict_vectors, key=repr) == sorted(draw * 2, key=repr)
    assert stepped == draw * 2


def test_gate_reads_the_evidence_at_its_own_step_limit():
    # A loop of ~3 steps per iteration: 100 iterations finish within
    # the oracle's budget but not within a 100-step gate.
    text = """
define i32 @spin(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %next, %loop ]
  %next = add i32 %i, 1
  %done = icmp sge i32 %next, 100
  br i1 %done, label %exit, label %loop
exit:
  ret i32 %next
}
"""
    evidence = Evidence.capture(
        parse_module(text), seed=0, vectors=2, step_limit=200_000,
        evaluator="interp",
    )
    module = parse_module(text)
    for vector, observation in evidence.observed["spin"]:
        assert observation.status == "ok" and observation.steps > 100
    # Capped, each pair is exactly what a 100-step run observes.
    assert evidence.reference("spin", 2, 100) == tuple(
        (vector, observe_call(module, "spin", vector, step_limit=100))
        for vector, _ in evidence.observed["spin"]
    )
    assert evidence.reference("spin", 2, 200_000) == evidence.observed["spin"]
    assert evidence.reference("spin", 3, 200_000) is None
