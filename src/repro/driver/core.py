"""The parallel, memoizing, fault-tolerant optimization driver.

One engine, :class:`DriverSession`, fans per-function RoLAG work out
over a process pool.  Each worker receives a picklable
:class:`FunctionJob` (IR or mini-C text), runs the standard
measurement pipeline -- size before, LLVM-style reroll baseline,
RoLAG, verify, size after -- on fresh copies of the job's module, and
sends back a plain :class:`FunctionResult`.  Every job runs the
mini-C frontend at most once: when a C job has already been compiled
to fingerprint it (by a pool worker for a cached batch, else by the
session), the job travels with that module's printed IR and the
worker parses its copies from it; otherwise the worker compiles once
and parses its copies from its own print.  An IR job's
text already is that form.  The printed text is all a copy needs:
fresh names derive from the live IR (see
:meth:`repro.ir.Function.next_name`), so a parsed copy names what a
pass derives exactly as the compiled module would.  The ``repro
serve`` daemon drives one long-lived session; the batch entry point
:func:`optimize_functions` is a thin client that submits every job,
drains the session, and returns the results in job order.

Dispatch is chunked (one pickle round-trip per chunk, not per
function) and falls back to a deterministic in-process loop for
``workers=1``, so tests and small runs never pay pool startup.  With a
cache directory, results are memoized content-addressed under an
*alpha-invariant structural* key (see ``cache.py`` and
``repro.ir.structhash``): a warm rerun resolves entirely from disk
even if every value, label, and function in the corpus was renamed in
between.  The same fingerprints drive in-flight dedupe --
structurally identical jobs are coalesced before they reach the pool,
one leader computes, and every follower receives a copy rewritten
into its own namespace via the canonical-renaming witness.

At corpus scale, one pathological function must cost one result, never
the run.  The resilience contract (see ``docs/robustness.md``):

* every job is guarded in its worker -- an exception or a cooperative
  :class:`~repro.faultinject.DeadlineExceeded` becomes a structured
  failure, never a lost batch;
* ``deadline`` bounds each function's wall clock; hangs that ignore
  the cooperative checkpoints are killed by the parent watchdog along
  with their pool, which is respawned (``max_pool_respawns`` times);
* failed jobs are retried (``retries`` times, exponential backoff) and
  functions that exhaust their retries are recorded in a persistent
  quarantine list so later runs skip them outright;
* a job that still fails degrades gracefully: its
  :class:`FunctionResult` carries the *original* function text plus a
  structured ``error``/``error_kind``, and the batch completes;
* when the pool keeps dying, the driver either falls back to the
  in-process serial path (``serial_fallback=True``) or abandons the
  remaining jobs as error results -- it never deadlocks.

Failures are counted on :class:`DriverStats` (``crashed``,
``timed_out``, ``retried``, ``quarantined``, ``cache_corrupt``, ...)
and surfaced in the CLI batch summary.  The whole machinery is driven
through the deterministic fault-injection sites in
``repro.faultinject`` (``driver.worker.start``, ``driver.worker.roll``,
``cache.read``, ``cache.write``, ``pipeline.pass``, ...).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.costmodel import CodeSizeCostModel
from ..difftest.runner import check_module_semantics
from ..faultinject import (
    DeadlineExceeded,
    FaultPlan,
    checkpoint,
    deadline_scope,
    fire,
    install_plan,
    resolve_plan,
)
from ..ir import (
    ParseError,
    parse_module,
    print_module,
    rename_function_locals,
    rename_globals,
    verify_module,
)
from ..ir.module import Module
from ..ir.structhash import StructuralSummary, compose_witness_renames
from ..rolag import RolagConfig, RolagStats, roll_loops_in_module
from ..transforms.reroll import reroll_loops
from .cache import ResultCache, fingerprint_job, job_key, materialize
from .quarantine import QuarantineList, quarantine_key
from .types import DriverReport, DriverStats, FunctionJob, FunctionResult

#: Pool sizes beyond this stop paying off for per-function work.
MAX_DEFAULT_WORKERS = 8


def default_worker_count() -> int:
    """``min(os.cpu_count(), 8)``, and at least 1."""
    return max(1, min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS))


def _measure(
    module: Module, name: Optional[str], model: Optional[CodeSizeCostModel]
) -> int:
    # Imported here, not at module scope: ``repro.bench`` imports this
    # package back (its harness drives the pool), and a top-level import
    # made a cold ``import repro.driver`` fail with a circular-import
    # error unless the caller happened to import ``repro.bench`` first.
    from ..bench.objsize import function_size, measure_module

    if name is None:
        return measure_module(module, model).total
    return function_size(module.get_function(name), model)


def optimize_one(
    job: FunctionJob,
    config: Optional[RolagConfig] = None,
    measure_model: Optional[CodeSizeCostModel] = None,
    timed: bool = False,
    check_semantics: bool = False,
    evaluator: str = "interp",
    shipped_ir: Optional[str] = None,
) -> FunctionResult:
    """The per-function pipeline one worker runs for one job.

    Every stage -- reroll baseline, RoLAG, and the oracle's original --
    parses and verifies its own fresh copy of one IR text: the job's
    own, ``shipped_ir`` (the printed module the session fingerprinted
    a mini-C job from), or, without either, the print of one frontend
    run here.

    With ``check_semantics`` set, both transformed modules are
    differentially tested against a fresh copy of the input via the
    :mod:`repro.difftest` oracle (executed by ``evaluator``); the
    verdict and any mismatch details travel back (and into the cache)
    on the result.  Oracle time lands in the stats' ``eval`` phase so
    timed runs show evaluation next to the rolling phases.

    With ``config.validate`` on, both the reroll baseline and every
    RoLAG rolling decision run transactionally through the online
    validation gate (see ``repro.validation``): rejected edits are
    rolled back to best-known-good IR and recorded on the result's
    ``guard_reports``.

    The pipeline checkpoints the ambient deadline between stages, so a
    budgeted run (see :func:`optimize_functions`) bails out of a slow
    function at the next stage boundary.
    """
    config = config or RolagConfig()
    start = perf_counter()
    parse_seconds = 0.0

    def load() -> Module:
        # Parse/verify wall time books under the stats' ``parse`` phase
        # so timed runs attribute the Amdahl floor directly.
        nonlocal parse_seconds, shipped_ir
        parse_start = perf_counter()
        if shipped_ir is None:
            shipped_ir = (
                job.ir_text
                if job.ir_text is not None
                else print_module(materialize(job))
            )
        loaded = parse_module(shipped_ir)
        verify_module(loaded)
        parse_seconds += perf_counter() - parse_start
        return loaded

    validate = config.validate
    # Vector seed derives from the input text, so reruns replay the
    # same vectors (for both the oracle and the online validation gate)
    # and the cache entry stays meaningful.  Only those two consume it,
    # so a run with neither never imports ``repro.validation`` (lazily
    # imported, see ``_make_validator``).
    vector_seed = 0
    if validate != "off" or check_semantics:
        from ..validation import evidence_seed

        vector_seed = evidence_seed(job.text)
    guard_reports: List[Dict[str, object]] = []

    # Baseline: LLVM-style rerolling on its own fresh copy.  With
    # validation on, reroll runs as a transaction through the gate;
    # with it off, the historical direct path is kept bit-for-bit
    # (including fault-site hit counts).
    llvm_module = load()
    checkpoint("load")
    if validate != "off":
        from ..transforms.txn import TransactionalPassManager

        llvm_validator = _make_validator(config, vector_seed)
        reroll_pm = TransactionalPassManager(
            verify=False, validator=llvm_validator
        )
        reroll_pm.add("reroll", reroll_loops)
        llvm_rolled = reroll_pm.run(llvm_module)
        guard_reports.extend(
            report.to_json_dict() for report in llvm_validator.reports
        )
    else:
        llvm_rolled = sum(
            reroll_loops(f)
            for f in llvm_module.functions
            if not f.is_declaration
        )
    verify_module(llvm_module)
    llvm_size = _measure(llvm_module, job.name, measure_model)
    checkpoint("reroll")

    # RoLAG on another fresh copy, measured before and after.
    module = load()
    size_before = _measure(module, job.name, measure_model)
    stats = RolagStats(timed=timed)
    fire("driver.worker.roll")
    rolag_validator = (
        _make_validator(config, vector_seed) if validate != "off" else None
    )
    rolag_rolled = roll_loops_in_module(
        module, config=config, stats=stats, validator=rolag_validator
    )
    guard_reports.extend(stats.guard_reports)
    verify_module(module)
    rolag_size = _measure(module, job.name, measure_model)
    checkpoint("rolag")

    semantics_ok: Optional[bool] = None
    semantics_mismatches: List[str] = []
    if check_semantics:
        original = load()
        eval_start = perf_counter()
        for label, candidate in (("reroll", llvm_module), ("rolag", module)):
            ok, details = check_module_semantics(
                original, candidate, seed=vector_seed, evaluator=evaluator
            )
            if not ok:
                semantics_mismatches.extend(
                    f"{label}: {detail}" for detail in details
                )
            checkpoint("eval")
        semantics_ok = not semantics_mismatches
        if timed:
            stats.add_phase_time("eval", perf_counter() - eval_start)

    if timed:
        stats.add_phase_time("parse", parse_seconds)

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
        optimized_ir=print_module(module),
        semantics_checked=check_semantics,
        semantics_ok=semantics_ok,
        semantics_mismatches=semantics_mismatches,
        guard_reports=guard_reports,
        phase_seconds=dict(stats.phase_seconds),
        wall_seconds=perf_counter() - start,
    )


def _make_validator(config: RolagConfig, seed: int):
    """The per-module-copy validation gate described by ``config``.

    Imported lazily: ``repro.validation`` transitively pulls in the
    difftest runner, which imports this package back.
    """
    from ..validation import Validator

    return Validator(
        config.validate,
        vectors=config.validate_vectors,
        step_limit=config.validate_step_limit,
        guard_dir=config.guard_dir,
        evaluator=config.validate_evaluator,
        seed=seed,
    )


# --- failure plumbing -------------------------------------------------------


@dataclass
class _Failure:
    """Picklable record of one failed attempt (travels pool -> parent)."""

    kind: str  # "crash" | "timeout"
    message: str


#: One worker-side attempt outcome.
Outcome = Union[FunctionResult, _Failure]


def run_one_guarded(
    job: FunctionJob,
    config: Optional[RolagConfig] = None,
    measure_model: Optional[CodeSizeCostModel] = None,
    timed: bool = False,
    check_semantics: bool = False,
    evaluator: str = "interp",
    deadline: Optional[float] = None,
    shipped_ir: Optional[str] = None,
) -> Outcome:
    """One attempt at one job, with crash/timeout containment.

    Runs :func:`optimize_one` under a cooperative deadline; any
    exception (including injected faults) becomes a :class:`_Failure`
    instead of propagating, so a worker never loses its whole chunk to
    one pathological function.  Hard deaths (``os._exit``, segfaults)
    cannot be caught here and are the parent pool's problem.
    """
    try:
        with deadline_scope(deadline):
            fire("driver.worker.start")
            return optimize_one(
                job, config, measure_model, timed, check_semantics,
                evaluator, shipped_ir,
            )
    except DeadlineExceeded as error:
        return _Failure("timeout", str(error))
    except Exception as error:
        return _Failure("crash", f"{type(error).__name__}: {error}")


def _error_result(
    job: FunctionJob, kind: str, message: str, attempts: int
) -> FunctionResult:
    """Graceful degradation: the original function plus a structured error."""
    return FunctionResult(
        name=job.name,
        metadata=dict(job.metadata),
        size_before=0,
        llvm_size=0,
        rolag_size=0,
        llvm_rolled=0,
        rolag_rolled=0,
        attempted=0,
        schedule_rejected=0,
        unprofitable=0,
        node_counts={},
        savings=[],
        optimized_ir=job.text,
        error=message,
        error_kind=kind,
        attempts=attempts,
    )


def _retarget_result(
    result: FunctionResult,
    producer: Optional[StructuralSummary],
    consumer: Optional[StructuralSummary],
) -> None:
    """Respell ``result`` (the producer's output) in the consumer's
    names, via the composed canonical-renaming witness.

    Rewrites the ``optimized_ir`` text and the per-function names in
    ``savings``.  Identity compositions (same spelling on both sides)
    are free, and any failure keeps the producer's text verbatim -- the
    result is still structurally correct, just spelled differently.
    """
    if producer is None or consumer is None:
        return
    locals_map, globals_map = compose_witness_renames(producer, consumer)
    if not locals_map and not globals_map:
        return
    try:
        text = result.optimized_ir
        if locals_map:
            text = rename_function_locals(text, locals_map)
        if globals_map:
            text = rename_globals(text, globals_map)
        result.optimized_ir = text
    except ParseError:  # pragma: no cover - output IR always lexes
        pass
    if globals_map:
        result.savings = [
            (globals_map.get(fn_name, fn_name), saved)
            for fn_name, saved in result.savings
        ]


def _follower_result(
    leader_result: FunctionResult,
    job: FunctionJob,
    leader_summary: Optional[StructuralSummary],
    summary: Optional[StructuralSummary],
    stats: DriverStats,
) -> FunctionResult:
    """Fan one computed leader result out to a structural duplicate.

    A failed leader degrades the follower identically (same error
    class, counted per follower) -- the follower *is* the same
    computation, so pretending it might have succeeded would be a lie.
    Successful results are deep-copied, restamped with the follower's
    identity, and their ``optimized_ir`` rewritten into the follower's
    namespace; ``guard_reports`` travel with the copy, so every
    rolled-back transaction is attributed to every duplicate.
    """
    if leader_result.failed:
        kind = leader_result.error_kind or "crash"
        if kind == "timeout":
            stats.timed_out += 1
        else:
            stats.crashed += 1
        result = _error_result(
            job, kind, leader_result.error or "", leader_result.attempts
        )
        result.dedupe_hit = True
        return result
    result = FunctionResult.from_json_dict(leader_result.to_json_dict())
    result.name = job.name
    result.metadata = dict(job.metadata)
    result.attempts = leader_result.attempts
    # The work happened once, in the leader: no wall/phase time here,
    # or timed aggregates would double-count it.
    result.wall_seconds = 0.0
    result.phase_seconds = {}
    result.dedupe_hit = True
    _retarget_result(result, leader_summary, summary)
    return result


def _dedupe_key(
    job: FunctionJob,
    cache_key: Optional[str],
    summary_of: Callable[[], Optional[StructuralSummary]],
    exact_text: bool,
) -> object:
    """The key identical in-flight jobs coalesce on.

    With a cache it is the structural cache key.  Without one, the
    batch policy (``exact_text``) coalesces only textually identical
    jobs, so a plain no-cache batch computes no hashes at all; the
    daemon policy coalesces on the alpha-invariant fingerprint (same
    respell machinery as cache retargeting).  Jobs that do not build
    fall back to exact text either way.
    """
    if cache_key is not None:
        return cache_key
    if not exact_text:
        summary = summary_of()
        if summary is not None:
            return ("struct", job.format, summary.fingerprint)
    return ("text", job.format, job.name, job.text)


# --- pool plumbing ----------------------------------------------------------
#
# The per-run knobs are shipped once per worker through the pool
# initializer instead of once per job through every pickle.

_WORKER_STATE: dict = {}

#: Exit code of a pool worker that noticed its parent process died.
ORPHANED_WORKER_EXIT_CODE = 87

#: Seconds between parent-liveness checks in each pool worker.
_PARENT_WATCH_INTERVAL = 1.0


def _watch_parent(parent_pid: int) -> None:
    """Exit the worker once its parent is gone (ppid changed).

    Forked siblings hold each other's call-queue pipe ends open, so a
    SIGKILLed parent (e.g. a serve daemon generation under the
    kill-chaos storm) would otherwise leave its workers blocked on
    ``get()`` forever -- orphans that also pin any inherited stdio
    pipes open.  Runs as a daemon thread started by the initializer.
    """
    import threading  # local: workers only

    def watch() -> None:
        while True:
            sleep(_PARENT_WATCH_INTERVAL)
            if os.getppid() != parent_pid:
                os._exit(ORPHANED_WORKER_EXIT_CODE)

    thread = threading.Thread(
        target=watch, name="parent-watch", daemon=True
    )
    thread.start()


def _init_worker(
    config: RolagConfig,
    measure_model: Optional[CodeSizeCostModel],
    timed: bool,
    check_semantics: bool,
    evaluator: str,
    deadline: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> None:
    if "parent_watch" not in _WORKER_STATE:
        _WORKER_STATE["parent_watch"] = True
        _watch_parent(os.getppid())
    _WORKER_STATE["config"] = config
    _WORKER_STATE["measure_model"] = measure_model
    _WORKER_STATE["timed"] = timed
    _WORKER_STATE["check_semantics"] = check_semantics
    _WORKER_STATE["evaluator"] = evaluator
    _WORKER_STATE["deadline"] = deadline
    # Fault-plan hit counters are per worker process by design: each
    # worker unpickles its own zeroed copy.
    install_plan(fault_plan)


def _run_chunk(
    pairs: Sequence[Tuple[FunctionJob, Optional[str]]]
) -> List[Outcome]:
    """Worker entry point: one guarded attempt per ``(job, shipped_ir)``
    pair in the chunk."""
    return [
        run_one_guarded(
            job,
            config=_WORKER_STATE["config"],
            measure_model=_WORKER_STATE["measure_model"],
            timed=_WORKER_STATE["timed"],
            check_semantics=_WORKER_STATE["check_semantics"],
            evaluator=_WORKER_STATE["evaluator"],
            deadline=_WORKER_STATE.get("deadline"),
            shipped_ir=shipped_ir,
        )
        for job, shipped_ir in pairs
    ]


def _fingerprint_chunk(
    jobs: Sequence[FunctionJob],
) -> List[Tuple[Optional[StructuralSummary], Optional[str], float]]:
    """Worker entry point: ``(summary, shipped_ir, seconds)`` per job,
    as :func:`fingerprint_job` returns them plus its wall time here."""
    out = []
    for job in jobs:
        start = perf_counter()
        summary, shipped_ir = fingerprint_job(job)
        out.append((summary, shipped_ir, perf_counter() - start))
    return out


def _terminate_pool_workers(executor) -> None:
    """SIGTERM every live worker of ``executor``; never raises.

    The hang-containment contract depends on this actually reaching
    the processes: a worker stuck in native code ignores
    ``shutdown(cancel_futures=True)`` and, being non-daemonic, would
    otherwise block interpreter exit.
    """
    procs = getattr(executor, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.terminate()
        except Exception:
            pass


# --- the batch entry point --------------------------------------------------


def optimize_functions(
    jobs: Sequence[FunctionJob],
    config: Optional[RolagConfig] = None,
    *,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    measure_model: Optional[CodeSizeCostModel] = None,
    chunk_size: Optional[int] = None,
    timed: bool = False,
    check_semantics: bool = False,
    evaluator: str = "interp",
    deadline: Optional[float] = None,
    retries: int = 1,
    retry_backoff: float = 0.05,
    quarantine_file: Optional[str] = None,
    quarantine_after: int = 2,
    fault_plan: Union[None, str, FaultPlan] = None,
    serial_fallback: bool = False,
    max_pool_respawns: int = 2,
    dedupe: bool = True,
) -> DriverReport:
    """Optimize every job, in parallel, memoized, and fault-tolerant.

    A thin client of :class:`DriverSession`: every job is submitted,
    the session is drained, and the results come back in job order
    regardless of completion order.  Every keyword means what it means
    on the session.  ``workers`` defaults to
    :func:`default_worker_count`; ``workers=1`` runs serially
    in-process (bit-identical to the pool path: either way each stage
    works on a copy parsed from the same text).  With ``cache_dir`` set
    (and ``use_cache`` true), cache hits resolve at submit time, and
    newly computed results are written back; a cached batch bound for a
    pool is fingerprinted on that pool before its first submit, so this
    process runs no frontend for it.
    ``check_semantics`` turns on the per-job differential oracle (see
    :func:`optimize_one`); it is part of the cache key, so checked and
    unchecked results never mix.  ``evaluator`` picks the oracle's
    execution backend and is likewise fingerprinted into the key.

    Structurally identical jobs coalesce onto one leader computation
    (``dedupe=False`` turns this off).  With a cache the coalescing key
    is the structural cache key; without one the batch coalesces only
    textually identical jobs, so a plain no-cache run fingerprints
    nothing.  A batch with a single job left to compute runs it
    in-process rather than start a pool for it.

    Resilience knobs (see the module docstring and
    ``docs/robustness.md``): ``deadline`` bounds each function's wall
    clock; failed jobs are retried ``retries`` times with exponential
    ``retry_backoff``; functions that exhaust their retries are
    recorded in ``quarantine_file`` and skipped once they accumulate
    ``quarantine_after`` failed attempts.  ``fault_plan`` (a
    :class:`~repro.faultinject.FaultPlan`, a spec string, or ``None``
    to consult ``config.fault_plan`` and then ``ROLAG_FAULT_PLAN``)
    injects deterministic faults for testing.  Every job always yields
    a result: on unrecoverable failure, a degraded one carrying the
    original text and a structured ``error``.
    """
    with DriverSession(
        config,
        workers=workers,
        cache_dir=cache_dir,
        use_cache=use_cache,
        measure_model=measure_model,
        chunk_size=chunk_size,
        timed=timed,
        check_semantics=check_semantics,
        evaluator=evaluator,
        deadline=deadline,
        retries=retries,
        retry_backoff=retry_backoff,
        quarantine_file=quarantine_file,
        quarantine_after=quarantine_after,
        fault_plan=fault_plan,
        serial_fallback=serial_fallback,
        max_pool_respawns=max_pool_respawns,
        dedupe=dedupe,
        _batch=len(jobs),
    ) as session:
        tickets = session._submit_batch(jobs)
        resolved = dict(session.drain())
    return DriverReport(
        results=[resolved[ticket] for ticket in tickets],
        stats=session.stats,
    )


# --- the engine -------------------------------------------------------------


@dataclass
class _Ticket:
    """Everything a session holds for one unresolved ticket.

    Dropped the moment the ticket resolves, so a long-lived session
    keeps state only for work still outstanding.
    """

    job: FunctionJob
    #: Structural cache key (with a cache only).
    key: Optional[str] = None
    #: Lazily computed structural summary (``None`` when unbuildable).
    summary: Optional[StructuralSummary] = None
    #: The printed IR a mini-C job was fingerprinted from, shipped with
    #: every attempt so the worker never runs the frontend again.
    shipped_ir: Optional[str] = None
    hashed: bool = False
    qkey: Optional[str] = None
    #: Dedupe key while this ticket leads an in-flight group.
    dkey: object = None
    followers: List[int] = field(default_factory=list)
    #: Failed attempts charged so far.
    attempts: int = 0
    #: Retry backoff: not dispatched before this perf_counter time.
    not_before: float = 0.0


class DriverSession:
    """The driver engine: incremental submit/collect over one pool.

    Jobs arrive one at a time (:meth:`submit` returns a ticket
    immediately), results are harvested as they complete
    (:meth:`collect`), and the memo cache, quarantine list, dedupe
    table, and worker pool persist across the session's lifetime.
    This is the engine behind both ``repro serve`` (one long-lived
    session) and :func:`optimize_functions` (submit a batch, then
    :meth:`drain`).

    * with a cache, every job is structurally fingerprinted and cache
      hits are served at submit time, rewritten into the submitting
      job's namespace via the stored witness.  Whenever a mini-C job
      is fingerprinted, the compiled module's printed IR is kept on
      its ticket and shipped with every attempt, so the frontend runs
      once per job (a pooled batch fingerprints on its pool, see
      :meth:`_submit_batch`);
    * a job identical to one still *in flight* coalesces onto that
      leader (even when the two came from different submitters): one
      computation, every follower gets a renamed copy, failures
      degrade every follower alike.  Without a cache a session
      coalesces on the alpha-invariant fingerprint; a batch coalesces
      on exact text only (see :func:`_dedupe_key`);
    * quarantined jobs are refused with a structured error result;
    * the resilience contract holds: deadlines, retries with backoff,
      pool respawn after crashes/hangs, graceful degradation -- every
      submitted ticket always resolves to exactly one result.

    :meth:`submit` never executes or harvests anything: work runs at
    the next :meth:`pump`/:meth:`collect`, so jobs submitted
    back-to-back can still coalesce and a pool receives them together.
    With ``workers == 1`` jobs execute in-process, in submission order
    (deterministic, pool-free -- the mode tests and single-core daemons
    run).  With more workers a persistent
    :class:`~concurrent.futures.ProcessPoolExecutor` computes them in
    chunks of ``chunk_size`` jobs (by default about four chunks per
    worker over the current queue, and single jobs under a deadline or
    a fault plan).  A chunk running longer than ``deadline`` per job
    is declared hung and its pool killed.  When the pool keeps dying,
    the remaining jobs run in-process (``serial_fallback=True``, what
    the daemon uses) or degrade to ``pool``-class error results (the
    default: an ``abort`` fault retried in-process would exit the
    caller).  A session is *not* thread-safe: one owner thread (the
    serve scheduler) drives it.

    Always :meth:`close` a session (or use it as a context manager):
    closing drains or degrades every outstanding ticket and tears the
    pool down -- no orphaned workers, no leaked in-flight jobs, even
    when teardown itself hits an exception.

    ``_batch`` (the batch's job count) is set by
    :func:`optimize_functions` alone: its whole batch is submitted
    before the first pump, so it dedupes on exact text without a cache,
    runs a lone job to compute in-process, opens its pool no wider than
    the batch, and with a cache fingerprints on that pool (see
    :meth:`_submit_batch`).
    """

    def __init__(
        self,
        config: Optional[RolagConfig] = None,
        *,
        workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        measure_model: Optional[CodeSizeCostModel] = None,
        chunk_size: Optional[int] = None,
        timed: bool = False,
        check_semantics: bool = False,
        evaluator: str = "interp",
        deadline: Optional[float] = None,
        retries: int = 1,
        retry_backoff: float = 0.05,
        quarantine_file: Optional[str] = None,
        quarantine_after: int = 2,
        quarantine_fsync: bool = False,
        fault_plan: Union[None, str, FaultPlan] = None,
        serial_fallback: bool = False,
        max_pool_respawns: int = 2,
        dedupe: bool = True,
        _batch: int = 0,
    ) -> None:
        self.config = config or RolagConfig()
        self.workers = (
            default_worker_count() if workers is None else max(1, workers)
        )
        self._measure_model = measure_model
        self._chunk_size = chunk_size
        self._timed = timed
        self._check_semantics = check_semantics
        self._evaluator = evaluator
        self._deadline = deadline
        self._retries = retries
        self._retry_backoff = retry_backoff
        self._serial_fallback = serial_fallback
        self._max_pool_respawns = max_pool_respawns
        self._dedupe = dedupe
        self._batch = _batch
        self._poll = 0.005 if deadline is None else max(
            0.002, min(0.05, deadline / 4.0)
        )

        self.stats = DriverStats(jobs=0, workers=self.workers)
        if timed:
            # Structural fingerprinting books under ``hash``, at the
            # seconds it took in whichever process ran it.
            self.stats.phase_seconds["hash"] = 0.0
        self._cache = (
            ResultCache(cache_dir) if (cache_dir and use_cache) else None
        )
        self._quarantine = QuarantineList(
            quarantine_file, threshold=quarantine_after,
            fsync=quarantine_fsync,
        )
        self._plan = resolve_plan(
            fault_plan if fault_plan is not None else self.config.fault_plan
        )
        # The serial path (and parent-side cache reads) fire fault
        # sites in this process; install the plan for the session's
        # lifetime and restore whatever was ambient on close.
        from ..faultinject.plan import get_active_plan

        self._prev_plan = get_active_plan()
        if self._plan is not None:
            install_plan(self._plan)

        #: Called as ``on_result(ticket, result)`` the moment a ticket
        #: resolves (from submit for cache hits / quarantine refusals,
        #: from pump for everything else).  The serve scheduler hooks
        #: this.
        self.on_result: Optional[Callable[[int, FunctionResult], None]] = None
        #: Called as ``on_respawn(count)`` each time the worker pool is
        #: torn down and rebuilt after a death or hang -- the session
        #: restart hook a supervising service uses to log and count
        #: partial restarts without polling the stats.
        self.on_respawn: Optional[Callable[[int], None]] = None

        self._next_ticket = 0
        #: Unresolved tickets only; ``pending`` is its length.
        self._tickets: Dict[int, _Ticket] = {}
        self._ready: deque = deque()  # (ticket, result) awaiting collect
        # In-flight dedupe: content key -> leader ticket, only while
        # the leader is unresolved.
        self._leader_by_key: Dict[object, int] = {}
        # Pool state (workers > 1).
        self._queue: deque = deque()  # tickets awaiting dispatch
        self._inflight: Dict[object, dict] = {}  # future -> chunk info
        self._executor = None
        self._respawns = 0
        #: Cause of the last parent-side pool failure, if any.
        self._pool_error: Optional[str] = None
        self._closed = False
        self._started = perf_counter()

    # -- context management ------------------------------------------------

    def __enter__(self) -> "DriverSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- bookkeeping helpers -----------------------------------------------

    def _summary_of(self, rec: _Ticket) -> Optional[StructuralSummary]:
        """Memoized structural summary (None when the job won't build).

        Lazy on purpose: without a cache only the failure and
        quarantine paths (and daemon dedupe) ever fingerprint a job.
        """
        if not rec.hashed:
            start = perf_counter()
            summary, shipped_ir = fingerprint_job(rec.job)
            self._fingerprinted(
                rec, summary, shipped_ir, perf_counter() - start
            )
        return rec.summary

    def _fingerprinted(
        self,
        rec: _Ticket,
        summary: Optional[StructuralSummary],
        shipped_ir: Optional[str],
        seconds: float,
    ) -> None:
        """Record one fingerprint, taken here or in a pool worker."""
        rec.summary, rec.shipped_ir, rec.hashed = summary, shipped_ir, True
        if self._timed:
            self.stats.phase_seconds["hash"] += seconds
        if summary is None:
            self.stats.hash_fallbacks += 1

    def _qkey(self, rec: _Ticket) -> str:
        if rec.qkey is None:
            rec.qkey = quarantine_key(rec.job, self._summary_of(rec))
        return rec.qkey

    def _sync_cache_counters(self) -> None:
        if self._cache is not None:
            self.stats.cache_writes = self._cache.writes
            self.stats.cache_corrupt = self._cache.corrupt
            self.stats.cache_write_errors = self._cache.write_errors

    def _finish(self, ticket: int, result: FunctionResult) -> None:
        """Resolve one ticket: drop its state, stats, ready queue, hook."""
        rec = self._tickets.pop(ticket)
        if rec.dkey is not None:
            self._leader_by_key.pop(rec.dkey, None)
        self.stats.guard_failures += len(result.guard_reports)
        for phase, seconds in result.phase_seconds.items():
            self.stats.phase_seconds[phase] = (
                self.stats.phase_seconds.get(phase, 0.0) + seconds
            )
        self._ready.append((ticket, result))
        if self.on_result is not None:
            self.on_result(ticket, result)

    def _settle(self, ticket: int, result: FunctionResult) -> None:
        """A leader computed (or degraded): cache, finish, fan out."""
        rec = self._tickets[ticket]
        # Error results are never cached: transient failures must not
        # poison warm reruns.
        if (
            self._cache is not None
            and not result.failed
            and rec.key is not None
        ):
            self._cache.put(rec.key, result, summary=rec.summary)
            self._sync_cache_counters()
        self._finish(ticket, result)
        for follower in rec.followers:
            follower_rec = self._tickets[follower]
            self._finish(
                follower,
                _follower_result(
                    result, follower_rec.job, rec.summary,
                    follower_rec.summary, self.stats,
                ),
            )

    def _charge(self, rec: _Ticket, kind: str, message: str) -> bool:
        """Count one failed attempt; True when the job gets another.

        Deriving the quarantine key fingerprints the job, which only
        failure paths should ever pay for.
        """
        rec.attempts += 1
        self._quarantine.record_failure(
            self._qkey(rec), rec.job.label, kind, message
        )
        self._quarantine.save()
        if rec.attempts <= self._retries:
            self.stats.retried += 1
            return True
        if kind == "timeout":
            self.stats.timed_out += 1
        else:
            self.stats.crashed += 1
        return False

    def _backoff(self, rec: _Ticket) -> float:
        return self._retry_backoff * (2 ** (rec.attempts - 1))

    # -- submission ---------------------------------------------------------

    def submit(self, job: FunctionJob) -> int:
        """Admit one job; returns its ticket immediately.

        Cache hits and quarantine refusals resolve before this
        returns; everything else resolves during a later
        :meth:`pump`/:meth:`collect`.
        """
        return self._admit(_Ticket(job))

    def _admit(self, rec: _Ticket) -> int:
        """:meth:`submit` for a record that may already carry its
        fingerprint (see :meth:`_submit_batch`)."""
        if self._closed:
            raise RuntimeError("session is closed")
        job = rec.job
        ticket = self._next_ticket
        self._next_ticket += 1
        self._tickets[ticket] = rec
        self.stats.jobs += 1

        if self._cache is not None:
            summary = self._summary_of(rec)
            rec.key = job_key(
                job, self.config, self._measure_model,
                self._check_semantics, self._evaluator, summary=summary,
            )
            hit = self._cache.get(rec.key)
            if hit is not None:
                # Structural hits may come from a differently-named
                # producer: restamp the job's identity and respell the
                # output via the envelope witness.
                hit.name = job.name
                hit.metadata = dict(job.metadata)
                _retarget_result(
                    hit,
                    hit.producer_witness,  # type: ignore[arg-type]
                    summary,
                )
                self.stats.cache_hits += 1
                self._finish(ticket, hit)
                return ticket
            self.stats.cache_misses += 1

        if len(self._quarantine) and self._quarantine.is_quarantined(
            self._qkey(rec)
        ):
            self.stats.quarantined += 1
            self._finish(
                ticket,
                _error_result(
                    job, "quarantined",
                    self._quarantine.describe(self._qkey(rec)),
                    attempts=0,
                ),
            )
            return ticket

        if self._dedupe:
            dkey = _dedupe_key(
                job, rec.key, lambda: self._summary_of(rec),
                exact_text=bool(self._batch),
            )
            leader = self._leader_by_key.get(dkey)
            if leader is not None:
                self._tickets[leader].followers.append(ticket)
                self.stats.dedupe_hits += 1
                rec.shipped_ir = None  # a follower never executes
                return ticket
            self._leader_by_key[dkey] = ticket
            rec.dkey = dkey

        self._queue.append(ticket)
        return ticket

    def _submit_batch(self, jobs: Sequence[FunctionJob]) -> List[int]:
        """Submit a whole batch, in order (:func:`optimize_functions`).

        A cached batch bound for a pool is fingerprinted on that pool
        first, so every job enters :meth:`_admit` with its summary and
        shipped IR set and this process runs no frontend at all.
        Admission itself (cache reads, quarantine, dedupe) is
        unchanged, and nothing is dispatched before the last job is
        admitted.
        """
        recs = [_Ticket(job) for job in jobs]
        if self._cache is not None and self.workers > 1 and len(recs) > 1:
            self._fingerprint_on_pool(recs)
        return [self._admit(rec) for rec in recs]

    def _fingerprint_on_pool(self, recs: List[_Ticket]) -> None:
        """Fingerprint ``recs`` on a fresh pool, in chunks.

        The seconds each fingerprint took in its worker book under
        ``hash``.
        A pool death, or a chunk running past its deadline budget (see
        :meth:`_overdue`), counts one death against the respawn budget;
        the records it leaves unfingerprinted are fingerprinted lazily
        in this process, like a serve session's.
        """
        from concurrent.futures import FIRST_EXCEPTION, wait

        size = self._chunk_size_for(len(recs))
        chunks: Dict[object, dict] = {}
        try:
            self._executor = self._spawn_executor()
            for start in range(0, len(recs), size):
                chunk = recs[start:start + size]
                future = self._executor.submit(
                    _fingerprint_chunk, [rec.job for rec in chunk]
                )
                chunks[future] = {"tickets": chunk, "first_running": None}
            pending = set(chunks)
            while pending:
                done, pending = wait(
                    pending,
                    timeout=None if self._deadline is None else self._poll,
                    return_when=FIRST_EXCEPTION,
                )
                broken = None
                for future in done:
                    try:
                        found = future.result()
                    except Exception as error:
                        broken = error
                        continue
                    for rec, fingerprint in zip(
                        chunks[future]["tickets"], found
                    ):
                        self._fingerprinted(rec, *fingerprint)
                if broken is not None:
                    raise broken
                if self._deadline is not None and self._overdue(
                    {future: chunks[future] for future in pending},
                    perf_counter(),
                ):
                    raise TimeoutError(
                        "fingerprinting exceeded the "
                        f"{self._deadline:.3f}s-per-job deadline budget"
                    )
        except Exception as error:
            self._pool_died(f"{type(error).__name__}: {error}")

    # -- execution ----------------------------------------------------------

    def _runs_in_process(self) -> bool:
        """One worker runs everything in-process; so does a batch whose
        lone job to compute would otherwise start a pool for itself."""
        return self.workers == 1 or (
            self._batch
            and self._executor is None
            and self._respawns == 0
            and not self._inflight
            and len(self._queue) == 1
        )

    def _run_serially(self, ticket: int) -> None:
        """The in-process retry loop: attempt, back off, degrade, settle."""
        rec = self._tickets[ticket]
        start = perf_counter()
        while True:
            outcome = run_one_guarded(
                rec.job, self.config, self._measure_model, self._timed,
                self._check_semantics, self._evaluator, self._deadline,
                rec.shipped_ir,
            )
            if isinstance(outcome, FunctionResult):
                outcome.attempts = rec.attempts + 1
                result = outcome
                break
            if not self._charge(rec, outcome.kind, outcome.message):
                result = _error_result(
                    rec.job, outcome.kind, outcome.message, rec.attempts
                )
                break
            if self._retry_backoff > 0.0:
                sleep(self._backoff(rec))
        self.stats.record_latency(perf_counter() - start)
        self._settle(ticket, result)

    def _spawn_executor(self):
        """A fresh pool, never wider than the batch, or than the jobs
        queued in an open-ended session."""
        from concurrent.futures import ProcessPoolExecutor

        want = self._batch or len(self._queue)
        return ProcessPoolExecutor(
            max_workers=min(self.workers, max(1, want)),
            initializer=_init_worker,
            initargs=(
                self.config, self._measure_model, self._timed,
                self._check_semantics, self._evaluator, self._deadline,
                self._plan.fresh() if self._plan is not None else None,
            ),
        )

    def _shutdown_executor(self, kill: bool = True) -> None:
        """Tear the pool down; never raises.

        ``kill`` SIGTERMs the workers and returns at once (a dead,
        hung or abandoned pool); otherwise the idle workers are shut
        down and waited for, so none outlives the call.
        """
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        if kill:
            _terminate_pool_workers(executor)
        try:
            executor.shutdown(wait=not kill, cancel_futures=True)
        except Exception:
            pass

    def _requeue_inflight(self) -> None:
        """Move every unresolved in-flight ticket back to the queue,
        uncharged."""
        queued = set(self._queue)
        for info in self._inflight.values():
            self._queue.extend(
                t for t in info["tickets"]
                if t in self._tickets and t not in queued
            )
        self._inflight.clear()

    def _pool_died(self, cause: Optional[str] = None) -> None:
        """Count one pool death and tear the pool down for a respawn.

        The executor cannot say *which* job killed it, so in-flight
        work is requeued uncharged; the respawn budget bounds a poison
        job that kills every pool it meets.
        """
        self._respawns += 1
        self.stats.pool_respawns += 1
        if cause is not None:
            self._pool_error = cause
        self._requeue_inflight()
        self._shutdown_executor()
        hook = self.on_respawn
        if hook is not None:
            try:
                hook(self._respawns)
            except Exception:  # pragma: no cover - defensive
                pass

    def _pool_failure(self, ticket: int, kind: str, message: str) -> None:
        """One failed pool attempt: requeue with backoff, or degrade."""
        rec = self._tickets[ticket]
        if self._charge(rec, kind, message):
            rec.not_before = perf_counter() + self._backoff(rec)
            self._queue.append(ticket)
        else:
            self._settle(
                ticket, _error_result(rec.job, kind, message, rec.attempts)
            )

    def _degrade_remaining(self, message: str) -> None:
        """Settle every queued ticket without a pool (fallback path)."""
        remaining = list(self._queue)
        self._queue.clear()
        if self._serial_fallback and not self._closed:
            self.stats.serial_fallback = True
            for ticket in remaining:
                self._run_serially(ticket)
            return
        for ticket in remaining:
            rec = self._tickets[ticket]
            self.stats.crashed += 1
            self._settle(
                ticket, _error_result(rec.job, "pool", message, rec.attempts)
            )

    def _chunk_size_for(self, pending: int) -> int:
        """Chunk size for ``pending`` jobs: the configured one, single
        jobs under a deadline or a fault plan, else about four chunks
        per worker (balancing pickle overhead against stragglers)."""
        if self._chunk_size:
            return self._chunk_size
        if self._deadline is not None or self._plan is not None:
            return 1
        return max(1, -(-pending // (self.workers * 4)))

    def _dispatch(self) -> None:
        """Send every queued ticket past its backoff to the pool."""
        now = perf_counter()
        eligible = [
            t for t in self._queue if self._tickets[t].not_before <= now
        ]
        if not eligible:
            return
        self._queue = deque(
            t for t in self._queue if self._tickets[t].not_before > now
        )
        size = self._chunk_size_for(len(eligible))
        start = 0
        try:
            while start < len(eligible):
                chunk = eligible[start:start + size]
                future = self._executor.submit(
                    _run_chunk,
                    [
                        (self._tickets[t].job, self._tickets[t].shipped_ir)
                        for t in chunk
                    ],
                )
                self._inflight[future] = {
                    "tickets": chunk,
                    "first_running": None,
                    "submitted": perf_counter(),
                }
                start += size
        finally:
            self._queue.extend(eligible[start:])

    def _pump_pool(self) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait

        if self._queue and self._executor is None:
            if self._respawns > self._max_pool_respawns:
                detail = f": {self._pool_error}" if self._pool_error else ""
                self._degrade_remaining(
                    f"worker pool unhealthy after {self._respawns} "
                    f"respawn(s){detail}; job abandoned (enable "
                    "serial_fallback to retry in-process)"
                )
                return
            self._executor = self._spawn_executor()
        if self._queue:
            self._dispatch()
        if not self._inflight:
            return

        done, _ = wait(
            set(self._inflight), timeout=0, return_when=FIRST_COMPLETED
        )
        now = perf_counter()
        broken = False
        for future in done:
            try:
                outcomes = future.result()
            except Exception:
                # BrokenProcessPool, or executor plumbing failing: a
                # pool death either way.
                broken = True
                continue
            info = self._inflight[future]
            for ticket, outcome in zip(info["tickets"], outcomes):
                if isinstance(outcome, FunctionResult):
                    outcome.attempts = self._tickets[ticket].attempts + 1
                    self.stats.record_latency(now - info["submitted"])
                    self._settle(ticket, outcome)
                else:
                    self._pool_failure(ticket, outcome.kind, outcome.message)
            del self._inflight[future]
        if broken:
            self._pool_died()
        elif self._deadline is not None:
            self._kill_hangs(now)

    def _overdue(self, chunks: Dict[object, dict], now: float) -> List[object]:
        """The futures in ``chunks`` that have run longer than
        ``deadline`` per job plus slack: non-cooperative stalls."""
        slack = max(4 * self._poll, 0.05)
        hung = []
        for future, info in chunks.items():
            if info["first_running"] is None and future.running():
                info["first_running"] = now
            if info["first_running"] is None:
                continue
            budget = self._deadline * len(info["tickets"]) + slack
            if now - info["first_running"] > budget:
                hung.append(future)
        return hung

    def _kill_hangs(self, now: float) -> None:
        """Charge a timeout to every chunk running past its budget
        and kill the pool."""
        hung = self._overdue(self._inflight, now)
        if not hung:
            return
        for future in hung:
            for ticket in self._inflight[future]["tickets"]:
                self._pool_failure(
                    ticket,
                    "timeout",
                    f"exceeded the {self._deadline:.3f}s wall-clock "
                    "deadline without yielding; worker killed",
                )
            del self._inflight[future]
        self._pool_died()

    def pump(self) -> int:
        """Advance the engine without blocking; returns tickets resolved.

        With a pool: dispatches eligible queued tickets in chunks,
        harvests completions, requeues uncharged in-flight work when
        the pool dies (respawning it up to the budget), and kills
        non-cooperative hangs past their deadline budget.  A failure
        in this process mid-pump counts as one pool death too, so it
        never reaches the caller or strands in-flight work.  In-process
        (see :meth:`_runs_in_process`) it instead runs every queued
        ticket to completion, in submission order.
        """
        before = len(self._ready)
        if self._queue and self._runs_in_process():
            while self._queue:
                self._run_serially(self._queue.popleft())
        elif self._queue or self._inflight:
            try:
                self._pump_pool()
            except Exception as error:
                self._pool_died(f"{type(error).__name__}: {error}")
        return len(self._ready) - before

    # -- harvesting ---------------------------------------------------------

    @property
    def pending(self) -> int:
        """Tickets submitted but not yet resolved."""
        return len(self._tickets)

    @property
    def unread(self) -> int:
        """Resolved results not yet collected."""
        return len(self._ready)

    def collect(
        self, timeout: Optional[float] = 0.0
    ) -> List[tuple]:
        """Harvest resolved tickets as ``[(ticket, result), ...]``.

        ``timeout=0`` polls once; a positive timeout waits up to that
        long for at least one result; ``None`` blocks until a result
        arrives or nothing is pending.  Results come back in
        resolution order (not submission order -- this is a stream).
        """
        deadline_at = (
            None if timeout is None else perf_counter() + (timeout or 0.0)
        )
        while True:
            self.pump()
            if self._ready or self.pending == 0:
                break
            if deadline_at is not None and perf_counter() >= deadline_at:
                break
            sleep(self._poll)
        out = list(self._ready)
        self._ready.clear()
        return out

    def drain(self, timeout: Optional[float] = None) -> List[tuple]:
        """Collect until every submitted ticket has resolved."""
        deadline_at = (
            None if timeout is None else perf_counter() + timeout
        )
        out: List[tuple] = []
        while True:
            remaining = (
                None
                if deadline_at is None
                else max(0.0, deadline_at - perf_counter())
            )
            out.extend(self.collect(timeout=remaining))
            if self.pending == 0:
                return out
            if deadline_at is not None and perf_counter() >= deadline_at:
                return out

    # -- teardown -----------------------------------------------------------

    def close(
        self, drain: bool = True, drain_timeout: Optional[float] = None
    ) -> List[tuple]:
        """Tear the session down; every outstanding ticket resolves.

        With ``drain`` (the default) outstanding work is finished
        first (bounded by ``drain_timeout``); anything still pending
        after that -- or everything, with ``drain=False`` -- degrades
        to structured ``pool``-class error results.  The worker pool
        is always torn down, even if draining raises: no orphaned
        workers survive a closed session.  Idempotent.  Returns any
        results resolved during the close (uncollected ones remain
        available via :meth:`collect` on the closed session's ready
        queue -- but new submits are refused).
        """
        if self._closed:
            return []
        out: List[tuple] = []
        try:
            if drain and self.pending:
                out.extend(self.drain(timeout=drain_timeout))
        finally:
            self._closed = True
            message = "session closed with the job still outstanding"
            kill = bool(self._inflight)
            try:
                # Whatever is still queued or in flight degrades; the
                # _closed flag above keeps the fallback path from
                # re-executing work during teardown.
                self._requeue_inflight()
                self._degrade_remaining(message)
                # Followers whose leader never resolved degrade too.
                for ticket, rec in list(self._tickets.items()):
                    self.stats.crashed += 1
                    self._finish(
                        ticket,
                        _error_result(rec.job, "pool", message, rec.attempts),
                    )
            finally:
                self._shutdown_executor(kill)
                try:
                    self._quarantine.save()
                except Exception:
                    pass
                self._sync_cache_counters()
                self.stats.wall_seconds = perf_counter() - self._started
                install_plan(self._prev_plan)
        return out
