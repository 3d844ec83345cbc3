"""Each job runs the mini-C frontend once, and outputs do not change.

A job's pipeline runs both stages (reroll baseline and RoLAG) on one
module, parsed once from one printed IR text: the one the session
printed when it fingerprinted the job, or one the worker printed after
compiling once.  The baseline is rolled back before RoLAG runs.  The
tests here count ``compile_c`` calls and parses, pin every output
against an independently compiled reference, check that a C job, its
printed-IR job and a pipeline compiling each stage afresh answer
byte-identically (validated TSVC jobs too, against a pipeline that
parses a copy and builds a gate per stage), and check that a pooled,
cached batch fingerprints on its pool, so the parent runs no frontend
(pool tests are marked ``parallel``).
"""

import itertools
import os
import time

import pytest

import repro.frontend
from repro.bench import angha, tsvc
from repro.bench.objsize import function_size
from repro.difftest.runner import check_module_semantics, evidence_seed
from repro.driver import (
    DriverSession,
    FunctionJob,
    optimize_functions,
    optimize_one,
    run_one_guarded,
)
from repro.driver import core
from repro.driver.core import _Ticket
from repro.driver.quarantine import quarantine_key
from repro.frontend import compile_c
from repro.ir import parse_module, print_module
from repro.rolag import RolagConfig, RolagStats, roll_loops_in_module
from repro.transforms.reroll import reroll_loops
from repro.transforms.txn import TransactionalPassManager
from repro.validation import Validator

SEED = 2022
COUNT = 6

#: Parses, but the block has no terminator.
UNVERIFIABLE_IR = "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n}\n"

#: What a job's answer is made of, minus timings.
FIELDS = (
    "size_before", "llvm_size", "rolag_size", "llvm_rolled",
    "rolag_rolled", "savings", "optimized_ir", "guard_reports",
    "semantics_ok", "semantics_mismatches", "error_kind",
)


def _corpus():
    return [
        FunctionJob(
            name=cs.name, c_source=cs.source,
            metadata=(("family", cs.family),),
        )
        for cs in angha.generate_sources(count=COUNT, seed=SEED)
    ]


def _answer(result):
    return {field: getattr(result, field) for field in FIELDS}


@pytest.fixture
def compiles(monkeypatch):
    """Count every frontend run made through ``repro.frontend``."""
    calls = []

    def counting(source, *args, **kwargs):
        calls.append(source)
        return compile_c(source, *args, **kwargs)

    monkeypatch.setattr(repro.frontend, "compile_c", counting)
    return calls


RUNS = {
    "cache": (RolagConfig(), {"cache": True}),
    "no-cache": (RolagConfig(), {}),
    "checked": (
        RolagConfig(validate="safe"),
        {"check_semantics": True, "cache": True},
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_frontend_runs_once_per_job_and_outputs_match(
    run, compiles, tmp_path
):
    config, options = RUNS[run]
    options = dict(options)
    cache_dir = str(tmp_path / "cache") if options.pop("cache", False) else None
    jobs = _corpus()
    report = optimize_functions(
        jobs, config, workers=1, cache_dir=cache_dir, **options
    )
    assert len(compiles) == len(jobs)
    assert sorted(compiles) == sorted(job.c_source for job in jobs)
    assert report.stats.cache_misses == (len(jobs) if cache_dir else 0)

    reference = [
        optimize_one(
            job, config, check_semantics=options.get("check_semantics", False),
            shipped_ir=print_module(
                compile_c(job.c_source, module_name="reference")
            ),
        )
        for job in jobs
    ]
    assert sum(r.rolag_rolled for r in reference) > 0, "corpus rolls nothing"
    for result, expected in zip(report.results, reference):
        assert not result.failed, result.error
        assert _answer(result) == _answer(expected), result.name


def test_optimize_one_without_frozen_form_compiles_once(compiles):
    job = _corpus()[0]
    result = optimize_one(job, check_semantics=True)
    assert len(compiles) == 1
    assert result.semantics_ok


@pytest.mark.parametrize("validate", ["off", "safe"])
def test_one_module_is_parsed_once_and_verified_after_each_stage(
    monkeypatch, validate
):
    events = []
    parse, verify = core.parse_module, core.verify_module

    def parsing(text):
        module = parse(text)
        events.append(("parse", module))
        return module

    def verifying(module):
        events.append(("verify", module))
        verify(module)

    monkeypatch.setattr(core, "parse_module", parsing)
    monkeypatch.setattr(core, "verify_module", verifying)
    result = optimize_one(_corpus()[0], RolagConfig(validate=validate))
    assert not result.failed, result.error
    assert result.rolag_rolled
    # Parse, verify the text, then verify after reroll and after RoLAG:
    # both stages run on the one parsed module.
    assert [kind for kind, _ in events] == [
        "parse", "verify", "verify", "verify"
    ]
    assert len({id(module) for _, module in events}) == 1


def test_ir_jobs_never_reach_the_frontend(compiles, tmp_path):
    jobs = [
        FunctionJob(name=job.name, ir_text=print_module(compile_c(job.c_source)))
        for job in _corpus()[:2]
    ]
    compiles.clear()
    optimize_functions(jobs, workers=1, cache_dir=str(tmp_path))
    assert compiles == []


IDENTITY_COUNT = 40


def _fresh_per_stage(job, config):
    """The pipeline as ``perfbench/trace.py`` replays it: each stage
    compiles its own copy, and the passes are called directly."""
    llvm_module = compile_c(job.c_source, module_name=f"driver.{job.name}")
    for fn in llvm_module.functions:
        reroll_loops(fn)
    module = compile_c(job.c_source, module_name=f"driver.{job.name}")
    roll_loops_in_module(module, config=config)
    return (
        function_size(llvm_module.get_function(job.name), None),
        function_size(module.get_function(job.name), None),
        print_module(module),
    )


class TestShippedText:
    def test_c_ir_and_fresh_stage_pipelines_agree_byte_for_byte(self):
        config = RolagConfig()
        rolled = 0
        for cs in angha.generate_sources(count=IDENTITY_COUNT, seed=SEED):
            c_job = FunctionJob(name=cs.name, c_source=cs.source)
            ir_job = FunctionJob(
                name=cs.name, ir_text=print_module(compile_c(cs.source))
            )
            from_c = optimize_one(c_job, config)
            from_ir = optimize_one(ir_job, config)
            fresh = _fresh_per_stage(c_job, config)
            assert from_c.optimized_ir == from_ir.optimized_ir, cs.name
            assert fresh == (
                from_c.llvm_size, from_c.rolag_size, from_c.optimized_ir
            ), cs.name
            assert from_ir.savings == from_c.savings, cs.name
            rolled += from_c.rolag_rolled
        assert rolled > 0, "corpus rolls nothing"

    def test_malformed_text_fails_like_a_bad_ir_job(self):
        shipped = run_one_guarded(_corpus()[0], shipped_ir=UNVERIFIABLE_IR)
        from_ir = run_one_guarded(FunctionJob(name="f", ir_text=UNVERIFIABLE_IR))
        assert (shipped.kind, shipped.message) == (
            from_ir.kind, from_ir.message,
        )
        assert shipped.message.startswith("VerificationError")


def _validated_fresh_per_stage(job, config, evaluator):
    """The validated pipeline as ``perfbench/trace.py`` replays it:
    each stage parses its own copy and gates it with its own
    validator, and the oracle captures the original afresh."""
    seed = evidence_seed(job.text)

    def gate():
        return Validator(
            config.validate, vectors=config.validate_vectors,
            step_limit=config.validate_step_limit, evaluator=evaluator,
            seed=seed,
        )

    llvm_module, module = (parse_module(job.ir_text) for _ in range(2))
    llvm_gate, rolag_gate = gate(), gate()
    reroll_pm = TransactionalPassManager(verify=False, validator=llvm_gate)
    reroll_pm.add("reroll", reroll_loops)
    llvm_rolled = reroll_pm.run(llvm_module)
    size_before = function_size(module.get_function(job.name), None)
    stats = RolagStats()
    rolag_rolled = roll_loops_in_module(
        module, config=config, stats=stats, validator=rolag_gate
    )
    mismatches = []
    for label, candidate in (("reroll", llvm_module), ("rolag", module)):
        _, details = check_module_semantics(
            parse_module(job.ir_text), candidate, seed=seed,
            evaluator=evaluator,
        )
        mismatches.extend(f"{label}: {detail}" for detail in details)
    return {
        "size_before": size_before,
        "llvm_size": function_size(llvm_module.get_function(job.name), None),
        "rolag_size": function_size(module.get_function(job.name), None),
        "llvm_rolled": llvm_rolled,
        "rolag_rolled": rolag_rolled,
        "savings": stats.savings,
        "optimized_ir": print_module(module),
        "guard_reports": [
            report.to_json_dict()
            for report in llvm_gate.reports + rolag_gate.reports
        ],
        "semantics_ok": not mismatches,
        "semantics_mismatches": mismatches,
        "error_kind": None,
    }


#: Factor-8 TSVC kernels the reroll baseline rolls, so the one-module
#: pipeline really restores the baseline before RoLAG runs.
REROLLED_BY_8 = ["s000", "s1112", "s176", "s222", "s4115", "vdotr", "vsumr"]


def _assert_one_module_matches_fresh_copies(names, factor):
    config = RolagConfig(fast_math=True, validate="safe")
    rerolled = 0
    for name in names:
        job = FunctionJob(
            name=name,
            ir_text=print_module(tsvc.build_unrolled_kernel(name, factor)),
        )
        result = optimize_one(
            job, config, check_semantics=True, evaluator="compiled"
        )
        expected = _validated_fresh_per_stage(job, config, "compiled")
        assert _answer(result) == expected, (name, factor)
        rerolled += bool(result.llvm_rolled)
    return rerolled


class TestOneModuleAgainstFreshCopies:
    """A validated TSVC job answers exactly as a pipeline that parses
    one copy per stage and gives each its own gate."""

    def test_rerolled_kernels_unrolled_by_8(self):
        rerolled = _assert_one_module_matches_fresh_copies(REROLLED_BY_8, 8)
        assert rerolled == len(REROLLED_BY_8)

    @pytest.mark.slow
    @pytest.mark.parametrize("factor", [4, 8, 16])
    def test_every_kernel(self, factor):
        assert _assert_one_module_matches_fresh_copies(
            tsvc.kernel_names(), factor
        ) > 0


class TestQuarantineKeyOfUnbuildableJobs:
    JOB = FunctionJob(name="broken", c_source="int broken( {")

    def test_known_unbuildable_summary_is_not_recompiled(self, compiles):
        assert quarantine_key(self.JOB, None) == quarantine_key(self.JOB)
        # One compile for the default (computed) summary; none for None.
        assert len(compiles) == 1

    def test_charge_compiles_a_failing_job_once(self, compiles):
        with DriverSession(workers=1, retries=1) as session:
            rec = _Ticket(self.JOB, lambda result: None)
            assert session._charge(rec, "crash", "boom")
            assert len(compiles) == 1
            assert not session._charge(rec, "crash", "boom")
            assert len(compiles) == 1
            assert rec.summary is None and rec.shipped_ir is None

    def test_failing_job_through_the_batch(self, compiles):
        report = optimize_functions(
            [self.JOB], workers=1, retries=0, retry_backoff=0.0
        )
        assert report.results[0].failed
        # The worker's attempt, then the fingerprint behind the
        # quarantine key; nothing more.
        assert len(compiles) == 2


# --- a pooled, cached batch fingerprints on its pool ---------------------


def _twinned_corpus():
    """Each job followed by a structural twin: the same function under
    another name."""
    base = _corpus()
    twins = [
        FunctionJob(
            name=f"{job.name}_twin",
            c_source=job.c_source.replace(job.name, f"{job.name}_twin"),
            metadata=job.metadata,
        )
        for job in base
    ]
    return [job for pair in zip(base, twins) for job in pair]


@pytest.fixture
def spawns(monkeypatch):
    """Count the executors a session spawns."""
    calls = []
    real_spawn = DriverSession._spawn_executor

    def spawn(self):
        calls.append(self)
        return real_spawn(self)

    monkeypatch.setattr(DriverSession, "_spawn_executor", spawn)
    return calls


def _outputs(report):
    return [(r.name, _answer(r), r.dedupe_hit) for r in report.results]


def _in_worker(parent):
    """True in a forked pool worker of the process ``parent``."""
    return os.getpid() != parent


@pytest.mark.parallel
def test_pooled_cached_batch_compiles_nothing_in_the_parent(
    compiles, spawns, tmp_path
):
    # Forked workers append to their own copies of ``compiles``, so
    # only frontend runs in this process show up.
    jobs = _twinned_corpus()
    expected = {"cold": (COUNT, 0), "warm": (0, 2 * COUNT)}
    for run, (dedupe_hits, cache_hits) in expected.items():
        serial = optimize_functions(
            jobs, workers=1, cache_dir=str(tmp_path / "serial")
        )
        compiles.clear()
        spawns.clear()
        pooled = optimize_functions(
            jobs, workers=2, cache_dir=str(tmp_path / "pooled")
        )
        assert compiles == [], run
        assert len(spawns) == 1, run
        for stats in (serial.stats, pooled.stats):
            assert (stats.dedupe_hits, stats.cache_hits) == (
                dedupe_hits, cache_hits,
            ), run
        assert pooled.stats.pool_respawns == 0, run
        assert _outputs(pooled) == _outputs(serial), run


@pytest.mark.parallel
def test_pool_fingerprint_stats_are_the_workers(monkeypatch, tmp_path):
    """``hash`` books the seconds measured in the workers (here a fake
    worker clock makes every fingerprint take exactly one second), and
    a worker-side ``(None, None)`` counts as a hash fallback."""
    jobs = _corpus()
    parent = os.getpid()
    real_fingerprint = core.fingerprint_job
    real_clock = core.perf_counter
    ticks = itertools.count()

    def fingerprint(job):
        if _in_worker(parent) and job.name == jobs[0].name:
            return None, None
        return real_fingerprint(job)

    def clock():
        return float(next(ticks)) if _in_worker(parent) else real_clock()

    monkeypatch.setattr(core, "fingerprint_job", fingerprint)
    monkeypatch.setattr(core, "perf_counter", clock)
    report = optimize_functions(
        jobs, workers=2, cache_dir=str(tmp_path), timed=True
    )
    assert report.stats.phase_seconds["hash"] == float(len(jobs))
    assert report.stats.hash_fallbacks == 1
    assert report.stats.cache_misses == len(jobs)
    assert not any(r.failed for r in report.results)


@pytest.mark.parallel
def test_worker_death_while_fingerprinting(monkeypatch, tmp_path):
    jobs = _twinned_corpus()
    serial = optimize_functions(
        jobs, workers=1, cache_dir=str(tmp_path / "serial")
    )
    parent = os.getpid()
    real_fingerprint = core.fingerprint_job

    def dying(job):
        if _in_worker(parent):
            os._exit(3)
        return real_fingerprint(job)

    # Patched before the pool spawns, so every forked worker dies on
    # its first fingerprint; the parent then fingerprints lazily.
    monkeypatch.setattr(core, "fingerprint_job", dying)
    pooled = optimize_functions(
        jobs, workers=2, cache_dir=str(tmp_path / "pooled")
    )
    assert pooled.stats.pool_respawns == 1
    assert len(pooled.results) == len(jobs)
    assert not any(r.failed for r in pooled.results)
    assert pooled.stats.dedupe_hits == serial.stats.dedupe_hits == COUNT
    assert _outputs(pooled) == _outputs(serial)


@pytest.mark.parallel
def test_hung_fingerprint_chunk_counts_one_pool_death(monkeypatch, tmp_path):
    jobs = _corpus()[:3]
    parent = os.getpid()
    real_fingerprint = core.fingerprint_job

    def hanging(job):
        if _in_worker(parent):
            time.sleep(60)
        return real_fingerprint(job)

    monkeypatch.setattr(core, "fingerprint_job", hanging)
    start = time.perf_counter()
    report = optimize_functions(
        jobs, workers=2, cache_dir=str(tmp_path), deadline=2.0
    )
    assert time.perf_counter() - start < 30
    assert report.stats.pool_respawns == 1
    assert not any(r.failed for r in report.results)


@pytest.mark.parallel
def test_one_job_batch_spawns_no_pool(spawns):
    report = optimize_functions(_corpus()[:1], workers=2)
    assert not report.results[0].failed
    assert spawns == []
