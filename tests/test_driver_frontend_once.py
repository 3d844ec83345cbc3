"""Each job runs the mini-C frontend once, and outputs do not change.

A mini-C job's pipeline consumes three copies of its module (reroll
baseline, RoLAG, the oracle's original).  They are parsed from one
printed IR text: the one the session printed when it fingerprinted the
job, or one the worker printed after compiling once.  The tests here
count ``compile_c`` calls, pin every output against an independently
compiled reference, check that a C job, its printed-IR job and a
pipeline compiling each stage afresh answer byte-identically, and
check the batch pool is fed while the batch is still being submitted
(pool tests are marked ``parallel``).
"""

import pytest

import repro.frontend
from repro.bench import angha
from repro.bench.objsize import function_size
from repro.driver import (
    DriverSession,
    FunctionJob,
    optimize_functions,
    optimize_one,
    run_one_guarded,
)
from repro.driver.core import _Ticket
from repro.driver.quarantine import quarantine_key
from repro.frontend import compile_c
from repro.ir import print_module
from repro.rolag import RolagConfig, roll_loops_in_module
from repro.transforms.reroll import reroll_loops

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


class TestQuarantineKeyOfUnbuildableJobs:
    JOB = FunctionJob(name="broken", c_source="int broken( {")

    def test_known_unbuildable_summary_is_not_recompiled(self, compiles):
        assert quarantine_key(self.JOB, None) == quarantine_key(self.JOB)
        # One compile for the default (computed) summary; none for None.
        assert len(compiles) == 1

    def test_charge_compiles_a_failing_job_once(self, compiles):
        with DriverSession(workers=1, retries=1) as session:
            rec = _Ticket(self.JOB)
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


# --- the batch pool is fed during submission ----------------------------


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
def pool_events(monkeypatch):
    """Record, in order, every ``submit`` return and every chunk the
    session hands its executor; and count executors spawned."""
    events = []
    real_submit = DriverSession.submit
    real_spawn = DriverSession._spawn_executor

    def submit(self, job):
        ticket = real_submit(self, job)
        events.append("submit")
        return ticket

    def spawn(self):
        executor = real_spawn(self)
        events.append("spawn")
        real_executor_submit = executor.submit

        def executor_submit(*args, **kwargs):
            events.append("chunk")
            return real_executor_submit(*args, **kwargs)

        executor.submit = executor_submit
        return executor

    monkeypatch.setattr(DriverSession, "submit", submit)
    monkeypatch.setattr(DriverSession, "_spawn_executor", spawn)
    return events


def _outputs(report):
    return [(r.name, _answer(r), r.dedupe_hit) for r in report.results]


@pytest.mark.parallel
def test_pool_is_fed_before_the_last_submit(pool_events, tmp_path):
    jobs = _twinned_corpus()
    serial = optimize_functions(
        jobs, workers=1, cache_dir=str(tmp_path / "serial")
    )
    pool_events.clear()
    pooled = optimize_functions(
        jobs, workers=2, cache_dir=str(tmp_path / "pooled")
    )
    last_submit = len(pool_events) - 1 - pool_events[::-1].index("submit")
    assert pool_events.index("chunk") < last_submit
    assert pool_events.count("spawn") == 1
    assert pooled.stats.dedupe_hits == serial.stats.dedupe_hits == COUNT
    assert pooled.stats.cache_hits == serial.stats.cache_hits == 0
    assert _outputs(pooled) == _outputs(serial)


@pytest.mark.parallel
def test_one_job_batch_spawns_no_pool(pool_events):
    report = optimize_functions(_corpus()[:1], workers=2)
    assert not report.results[0].failed
    assert "spawn" not in pool_events
