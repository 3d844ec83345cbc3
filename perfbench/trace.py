"""Spans and the traced serial replay behind the per-layer metrics.

Spans are recorded from the benchmark's own code around calls into
each layer's public functions; the program itself is not instrumented.
:func:`replay` re-runs a batch in this process, one job at a time,
mirroring the driver's per-job pipeline (``repro.driver.core``'s
``optimize_one`` and the cache/dedupe handling of
``optimize_functions``) with a span around every public call it makes.
Library code that calls back into a traced layer -- the rolling
pipeline opening and gating validation transactions, the oracle
observing calls -- is reached through per-instance wrappers or a
patched module attribute that is restored afterwards.

The replay must print the same optimized IR as the run it shadows; the
caller compares output digests and fails the run when they differ,
because a drifted replay would measure a pipeline nobody runs.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

import repro.difftest.runner as difftest_runner
from repro.bench.objsize import function_size
from repro.difftest.runner import check_module_semantics
from repro.driver import FunctionJob, FunctionResult, ResultCache, job_key
from repro.driver.cache import job_struct_summary
from repro.frontend import compile_c
from repro.ir import (
    parse_module,
    print_module,
    rename_function_locals,
    rename_globals,
    verify_module,
)
from repro.ir.structhash import compose_witness_renames
from repro.rolag import RolagConfig, RolagStats, roll_loops_in_module
from repro.transforms.reroll import reroll_loops
from repro.transforms.txn import TransactionalPassManager
from repro.validation import Validator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in :attr:`Tracer.spans` (-1: none).
    parent: int = -1
    #: Position of the job being processed (-1: outside any job).
    job: int = -1


class Tracer:
    """In-memory span recorder for one single-threaded replay."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.job = -1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, perf_counter(), parent=parent, job=self.job)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- aggregation ---------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: total duration minus what direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            own = span.end - span.start - child_time[index]
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0) + 1
        return totals

    def unattributed_pct(self) -> float:
        """Share of job-span time that no child span covers."""
        job_time = self.self_seconds().get("job", 0.0)
        total = sum(s.end - s.start for s in self.spans if s.name == "job")
        return 100.0 * job_time / total if total else 0.0


def _traced_validator(config: RolagConfig, seed: int, tracer: Tracer):
    """The gate ``optimize_one`` builds, with its transaction protocol
    wrapped so calls from inside the rolling pipeline are spanned."""
    validator = Validator(
        config.validate,
        vectors=config.validate_vectors,
        step_limit=config.validate_step_limit,
        guard_dir=config.guard_dir,
        evaluator=config.validate_evaluator,
        seed=seed,
    )
    validator.begin = tracer.wrap("Validator.begin", validator.begin)
    validator.commit_or_rollback = tracer.wrap(
        "Validator.commit_or_rollback", validator.commit_or_rollback
    )
    return validator


def _optimize_one(
    job: FunctionJob,
    config: RolagConfig,
    check_semantics: bool,
    evaluator: str,
    tracer: Tracer,
    phase_seconds: Dict[str, float],
) -> FunctionResult:
    """``repro.driver.core.optimize_one``, one span per public call."""
    start = perf_counter()

    def load():
        if job.ir_text is not None:
            module = tracer.call("parse_module", parse_module, job.ir_text)
            tracer.call("verify_module", verify_module, module)
            return module
        return tracer.call(
            "compile_c", compile_c, job.c_source,
            module_name=f"driver.{job.name}",
        )

    def measure(module) -> int:
        return tracer.call(
            "function_size", function_size, module.get_function(job.name), None
        )

    vector_seed = zlib.crc32(job.text.encode("utf-8")) & 0x7FFFFFFF
    guard_reports: List[Dict[str, object]] = []

    llvm_module = load()
    if config.validate != "off":
        llvm_validator = _traced_validator(config, vector_seed, tracer)
        reroll_pm = TransactionalPassManager(
            verify=False, validator=llvm_validator
        )
        reroll_pm.add("reroll", tracer.wrap("reroll_loops", reroll_loops))
        llvm_rolled = tracer.call("txn.run", reroll_pm.run, llvm_module)
        guard_reports.extend(
            report.to_json_dict() for report in llvm_validator.reports
        )
    else:
        llvm_rolled = sum(
            tracer.call("reroll_loops", reroll_loops, f)
            for f in llvm_module.functions
            if not f.is_declaration
        )
    tracer.call("verify_module", verify_module, llvm_module)
    llvm_size = measure(llvm_module)

    module = load()
    size_before = measure(module)
    stats = RolagStats(timed=True)
    rolag_validator = (
        _traced_validator(config, vector_seed, tracer)
        if config.validate != "off"
        else None
    )
    rolag_rolled = tracer.call(
        "roll_loops_in_module", roll_loops_in_module, module,
        config=config, stats=stats, validator=rolag_validator,
    )
    guard_reports.extend(stats.guard_reports)
    tracer.call("verify_module", verify_module, module)
    rolag_size = measure(module)
    for phase, seconds in stats.phase_seconds.items():
        phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds

    semantics_ok: Optional[bool] = None
    semantics_mismatches: List[str] = []
    if check_semantics:
        original = load()
        for label, candidate in (("reroll", llvm_module), ("rolag", module)):
            ok, details = tracer.call(
                "check_module_semantics", check_module_semantics,
                original, candidate, seed=vector_seed, evaluator=evaluator,
            )
            if not ok:
                semantics_mismatches.extend(f"{label}: {d}" for d in details)
        semantics_ok = not semantics_mismatches

    return FunctionResult(
        name=job.name,
        metadata=dict(job.metadata),
        size_before=size_before,
        llvm_size=llvm_size,
        rolag_size=rolag_size,
        llvm_rolled=llvm_rolled,
        rolag_rolled=rolag_rolled,
        attempted=stats.attempted,
        schedule_rejected=stats.schedule_rejected,
        unprofitable=stats.unprofitable,
        node_counts=dict(stats.node_counts),
        savings=list(stats.savings),
        optimized_ir=tracer.call("print_module", print_module, module),
        semantics_checked=check_semantics,
        semantics_ok=semantics_ok,
        semantics_mismatches=semantics_mismatches,
        guard_reports=guard_reports,
        wall_seconds=perf_counter() - start,
    )


def _retarget(result: FunctionResult, producer, consumer) -> None:
    """Respell a structural cache hit into the requester's names, the
    way the driver does for hits and dedupe followers."""
    if producer is None or consumer is None:
        return
    locals_map, globals_map = compose_witness_renames(producer, consumer)
    if locals_map:
        result.optimized_ir = rename_function_locals(
            result.optimized_ir, locals_map
        )
    if globals_map:
        result.optimized_ir = rename_globals(result.optimized_ir, globals_map)
        result.savings = [
            (globals_map.get(name, name), saved)
            for name, saved in result.savings
        ]


@dataclass
class Replay:
    results: List[FunctionResult]
    tracer: Tracer
    #: Summed ``RolagStats(timed=True)`` phase seconds.
    phase_seconds: Dict[str, float]
    #: Evaluator steps the semantics oracle executed.
    eval_steps: int
    wall_seconds: float


def replay(
    jobs: List[FunctionJob],
    config: RolagConfig,
    *,
    cache_dir: Optional[str],
    check_semantics: bool,
    evaluator: str,
) -> Replay:
    """Serially re-run ``jobs`` with one ``job`` span per job.

    With ``cache_dir`` every job is fingerprinted and looked up first
    (a structural duplicate of an earlier job hits the entry that job
    wrote); without, exact-text duplicates reuse the earlier result, as
    the driver's hash-free no-cache path does.
    """
    tracer = Tracer()
    phase_seconds: Dict[str, float] = {}
    steps = [0]
    observe = difftest_runner.observe_call

    def counting_observe(*args, **kwargs):
        observation = observe(*args, **kwargs)
        steps[0] += observation.steps
        return observation

    cache = ResultCache(cache_dir) if cache_dir else None
    by_text: Dict[tuple, FunctionResult] = {}
    results: List[FunctionResult] = []
    start = perf_counter()
    difftest_runner.observe_call = counting_observe
    try:
        for index, job in enumerate(jobs):
            tracer.job = index
            with tracer.span("job"):
                results.append(
                    _replay_job(
                        job, config, cache, by_text, check_semantics,
                        evaluator, tracer, phase_seconds,
                    )
                )
    finally:
        difftest_runner.observe_call = observe
    return Replay(
        results, tracer, phase_seconds, steps[0], perf_counter() - start
    )


def _replay_job(
    job, config, cache, by_text, check_semantics, evaluator, tracer,
    phase_seconds,
) -> FunctionResult:
    key = summary = None
    if cache is not None:
        summary = tracer.call("job_struct_summary", job_struct_summary, job)
        key = job_key(
            job, config, None, check_semantics, evaluator, summary=summary
        )
        hit = tracer.call("ResultCache.get", cache.get, key)
        if hit is not None:
            hit.name = job.name
            hit.metadata = dict(job.metadata)
            tracer.call(
                "retarget", _retarget, hit, hit.producer_witness, summary
            )
            return hit
    else:
        leader = by_text.get((job.format, job.name, job.text))
        if leader is not None:
            result = FunctionResult.from_json_dict(leader.to_json_dict())
            result.metadata = dict(job.metadata)
            result.wall_seconds = 0.0
            result.dedupe_hit = True
            return result
    result = _optimize_one(
        job, config, check_semantics, evaluator, tracer, phase_seconds
    )
    if cache is not None:
        tracer.call("ResultCache.put", cache.put, key, result, summary=summary)
    else:
        by_text[(job.format, job.name, job.text)] = result
    return result
