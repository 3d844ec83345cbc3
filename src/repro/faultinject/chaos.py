"""Chaos campaign: hammer the corpus driver with randomized fault plans.

``repro chaos`` runs a small synthetic corpus through
:func:`repro.driver.optimize_functions` for several rounds, each under
a different seeded :class:`~repro.faultinject.FaultPlan` (worker
crashes, cooperative hangs, cache corruption, pass failures), and
checks the driver's resilience invariants after every round:

* every job yields exactly one result, in order;
* a failed job degrades gracefully -- original text preserved,
  ``error_kind`` one of the documented classes;
* the failure counters on :class:`~repro.driver.DriverStats` agree
  with the per-result errors;
* the run terminates (no deadlock, no lost batch).

Round 0 always runs fault-free to warm the shared cache, so later
rounds exercise the corrupt-entry path against real entries.  The
quarantine file persists across rounds, so repeat offenders get
skipped the way they would across real runs.

With ``ir_faults`` the draw pool also includes the ``corrupt-ir``
action at the pass-exit sites (``pipeline.pass.exit``,
``rolag.roll.exit``): verifier-clean, semantics-changing IR mutations
simulating miscompiling passes.  The corpus then ships as precompiled
IR text (not mini-C), keeping the frontend cleanup out of the blast
radius, and every successful result is checked against its input on
the *gate's own evidence vectors*
(:func:`repro.validation.evidence_check`).  The headline invariant:
with ``validate`` on
(the online translation-validation gate, see ``repro.validation``), a
run must *never* emit semantics-changing IR -- every injected
corruption is rolled back and recorded as a guard failure.  With
``validate`` off, wrong outputs are counted (demonstrating the gate is
load-bearing) but are not violations.

Everything is derived from ``seed``: the same seed replays the same
campaign.  This module imports the driver and the corpus generator, so
it is deliberately *not* re-exported from ``repro.faultinject`` --
import it as ``repro.faultinject.chaos``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .plan import FaultPlan, FaultSpec

#: (site, eligible actions) the campaign draws from.  ``abort`` is
#: deliberately absent: the serial path runs jobs in the campaign's own
#: process, where an injected ``os._exit`` would kill the campaign.
SITE_ACTIONS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("driver.worker.start", ("raise", "hang")),
    ("driver.worker.roll", ("raise", "hang")),
    ("pipeline.pass", ("raise",)),
    ("cache.read", ("corrupt", "raise")),
    ("cache.write", ("raise",)),
)

#: Extra (site, actions) drawn when the campaign runs with
#: ``ir_faults``: semantics-changing IR corruption at every pass exit.
IR_SITE_ACTIONS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("pipeline.pass.exit", ("corrupt-ir",)),
    ("rolag.roll.exit", ("corrupt-ir",)),
)


@dataclass
class ChaosRound:
    """One round's plan and outcome."""

    index: int
    plan: str
    failed: int = 0
    cache_corrupt: int = 0
    quarantined: int = 0
    retried: int = 0
    #: Transactions the online validation gate rolled back this round.
    guard_failures: int = 0
    #: Successful results whose IR the oracle found semantics-changing.
    #: A violation when validation was on; informational when off.
    wrong_outputs: int = 0
    violations: List[str] = field(default_factory=list)


@dataclass
class ChaosReport:
    """Outcome of one chaos campaign."""

    seed: int
    jobs: int
    rounds: List[ChaosRound] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(r.violations for r in self.rounds)

    def summary(self) -> str:
        lines = [f"chaos: {len(self.rounds)} round(s), {self.jobs} job(s), "
                 f"seed {self.seed}"]
        for r in self.rounds:
            plan = r.plan or "(no faults)"
            line = (
                f"  round {r.index}: plan [{plan}] -> "
                f"failed {r.failed}, retried {r.retried}, "
                f"quarantined {r.quarantined}, "
                f"cache corrupt {r.cache_corrupt}"
            )
            if r.guard_failures or r.wrong_outputs:
                line += (
                    f", guard rollbacks {r.guard_failures}, "
                    f"wrong outputs {r.wrong_outputs}"
                )
            lines.append(line)
            for violation in r.violations:
                lines.append(f"    VIOLATION: {violation}")
        lines.append(
            "  OK: all invariants held" if self.ok
            else "  FAILED: resilience invariants violated"
        )
        return "\n".join(lines)


def build_chaos_plan(
    rng: random.Random, job_count: int, ir_faults: bool = False
) -> FaultPlan:
    """A small randomized-but-seeded plan for one round."""
    specs: List[FaultSpec] = []
    for site, actions in rng.sample(SITE_ACTIONS, k=rng.randint(1, 3)):
        specs.append(
            FaultSpec(
                site=site,
                action=rng.choice(list(actions)),
                at=rng.randint(1, max(1, job_count)),
                times=rng.choice([1, 1, 2]),
            )
        )
    if ir_faults:
        # Corrupt-ir clauses hit every round: the campaign's point is
        # that the validation gate (not luck) keeps outputs clean.
        for site, actions in IR_SITE_ACTIONS:
            specs.append(
                FaultSpec(
                    site=site,
                    action=rng.choice(list(actions)),
                    at=rng.randint(1, 4),
                    times=rng.choice([2, 4, None]),
                )
            )
    return FaultPlan(specs=specs, seed=rng.randint(0, 2**31 - 1))


def check_invariants(jobs: Sequence[object], report: object) -> List[str]:
    """The resilience contract, checked against one driver report."""
    violations: List[str] = []
    results = report.results
    stats = report.stats
    if len(results) != len(jobs):
        violations.append(
            f"{len(jobs)} job(s) in, {len(results)} result(s) out"
        )
        return violations
    failed = 0
    for job, result in zip(jobs, results):
        if result.name != job.name:
            violations.append(
                f"result order broken: {result.name} for {job.name}"
            )
        if result.failed:
            failed += 1
            if result.error_kind not in (
                "crash", "timeout", "quarantined", "pool"
            ):
                violations.append(
                    f"{job.name}: unknown error_kind {result.error_kind!r}"
                )
            if result.optimized_ir != job.text:
                violations.append(
                    f"{job.name}: degraded result lost the original text"
                )
        elif not result.optimized_ir.strip():
            violations.append(f"{job.name}: successful result carries no IR")
    if stats.failed != failed:
        violations.append(
            f"stats.failed={stats.failed} but {failed} result(s) "
            "carry errors"
        )
    return violations


def ir_corpus(job_count: int, seed: int) -> List[object]:
    """The seeded Angha corpus as precompiled IR-text jobs.

    Every oracle-checked harness storms IR text, not mini-C:
    ``corrupt-ir`` fires at *pass exits*, and the oracle needs a
    parseable "before" module -- corrupting inside the C frontend would
    be neither transactional nor replayable.  Each job carries its
    corpus family as metadata.
    """
    from ..bench import angha
    from ..driver import FunctionJob
    from ..frontend.lower import compile_c
    from ..ir import print_module

    return [
        FunctionJob(
            name=cs.name,
            ir_text=print_module(compile_c(cs.source, cs.name)),
            metadata=(("family", cs.family),),
        )
        for cs in angha.generate_sources(count=job_count, seed=seed)
    ]


def evidence_verdict(
    text: str, optimized_ir: str, config: object
) -> Tuple[str, str]:
    """Replay the gate's evidence for one output: ``(verdict, detail)``.

    The check is :func:`repro.validation.evidence_check` under the
    driver's per-job vector seed (:func:`repro.validation.evidence_seed`),
    i.e. *exactly* the observations the online gate attested -- the
    invariant "a validated run never emits IR that contradicts the
    evidence it committed on" is deterministic, unlike re-sampling
    fresh vectors would be.  ``config`` supplies the gate's vector
    count, step limit and evaluator.

    ``verdict`` is ``"ok"``, ``"wrong"`` (semantics-changing output;
    ``detail`` is the first mismatch) or ``"error"`` (the oracle itself
    raised; ``detail`` names the exception).  Callers own the message
    text and the accounting.
    """
    from ..ir import parse_module
    from ..validation import evidence_check, evidence_seed

    try:
        ok, details = evidence_check(
            parse_module(text),
            parse_module(optimized_ir),
            seed=evidence_seed(text),
            vectors=config.validate_vectors,
            step_limit=config.validate_step_limit,
            evaluator=config.validate_evaluator,
        )
    except Exception as error:
        return "error", f"{type(error).__name__}: {error}"
    if ok:
        return "ok", ""
    return "wrong", details[0] if details else "mismatch"


def oracle_check(
    jobs: Sequence[object],
    report: object,
    *,
    validate: str,
    config: object,
) -> Tuple[int, List[str]]:
    """Replay every successful IR-job result against its input.

    See :func:`evidence_verdict`.  Returns ``(wrong_outputs,
    violations)``.  A semantics-changing output is always counted; it
    is a *violation* only when the round ran with the validation gate
    on -- that is the gate's contract.
    """
    wrong = 0
    violations: List[str] = []
    for job, result in zip(jobs, report.results):
        if result.failed or job.format != "ir":
            continue
        verdict, detail = evidence_verdict(
            job.text, result.optimized_ir, config
        )
        if verdict == "error":
            violations.append(f"{job.label}: oracle error: {detail}")
        elif verdict == "wrong":
            wrong += 1
            if validate != "off":
                violations.append(
                    f"{job.label}: validated run emitted "
                    f"semantics-changing IR: {detail}"
                )
    return wrong, violations


def run_chaos(
    seed: int = 0,
    job_count: int = 12,
    rounds: int = 4,
    workers: int = 2,
    deadline: float = 5.0,
    retries: int = 1,
    base_dir: Optional[str] = None,
    validate: str = "off",
    ir_faults: bool = False,
) -> ChaosReport:
    """Run the campaign; see the module docstring for the contract.

    ``base_dir`` holds the shared cache and quarantine file; a
    temporary directory is used (and discarded) when omitted.
    ``validate`` turns on the online translation-validation gate at
    that level; ``ir_faults`` adds ``corrupt-ir`` clauses to every
    faulted round and oracle-checks each successful result.
    """
    import tempfile

    from ..bench import angha
    from ..driver import FunctionJob, optimize_functions
    from ..rolag.config import RolagConfig

    from ..validation import VALIDATION_LEVELS

    if validate not in VALIDATION_LEVELS:
        raise ValueError(f"unknown validation level {validate!r}")

    oracle = ir_faults or validate != "off"
    if oracle:
        jobs = ir_corpus(job_count, seed)
    else:
        jobs = [
            FunctionJob(
                name=cs.name, c_source=cs.source,
                metadata=(("family", cs.family),),
            )
            for cs in angha.generate_sources(count=job_count, seed=seed)
        ]
    report = ChaosReport(seed=seed, jobs=len(jobs))

    def campaign(root: str) -> None:
        cache_dir = os.path.join(root, "cache")
        quarantine_file = os.path.join(root, "quarantine.json")
        guard_dir = (
            os.path.join(root, "guards") if validate != "off" else None
        )
        for index in range(rounds):
            rng = random.Random((seed << 8) ^ index)
            plan = (
                FaultPlan(specs=[]) if index == 0
                else build_chaos_plan(rng, job_count, ir_faults=ir_faults)
            )
            spec = plan.spec_string()
            entry = ChaosRound(index=index, plan=spec)
            # In oracle mode the plan rides on the *config* so it lands
            # in the cache fingerprint: a corrupt-ir round must never
            # share memo entries with a clean one (a successful-but-
            # wrong result would otherwise poison later rounds).
            config = RolagConfig(
                fault_plan=(spec or None) if oracle else None,
                validate=validate,
                guard_dir=guard_dir,
            )
            try:
                outcome = optimize_functions(
                    jobs,
                    config,
                    workers=workers,
                    cache_dir=cache_dir,
                    deadline=deadline,
                    retries=retries,
                    quarantine_file=quarantine_file,
                    fault_plan=plan,
                )
            except Exception as error:
                # A chaos round must never take the campaign down with
                # it: contain, record, and keep storming.
                entry.violations.append(
                    f"campaign error: {type(error).__name__}: {error}"
                )
                report.rounds.append(entry)
                continue
            entry.failed = outcome.stats.failed
            entry.retried = outcome.stats.retried
            entry.quarantined = outcome.stats.quarantined
            entry.cache_corrupt = outcome.stats.cache_corrupt
            entry.guard_failures = outcome.stats.guard_failures
            entry.violations = check_invariants(jobs, outcome)
            if oracle:
                wrong, oracle_violations = oracle_check(
                    jobs, outcome, validate=validate, config=config
                )
                entry.wrong_outputs = wrong
                entry.violations.extend(oracle_violations)
            if index == 0 and outcome.stats.failed:
                entry.violations.append(
                    "fault-free round reported failures"
                )
            if index == 0 and outcome.stats.guard_failures:
                entry.violations.append(
                    "fault-free round reported guard rollbacks"
                )
            report.rounds.append(entry)

    if base_dir is not None:
        os.makedirs(base_dir, exist_ok=True)
        campaign(base_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="rolag-chaos-") as root:
            campaign(root)
    return report


# ---------------------------------------------------------------------------
# Chaos against the live daemon (``repro chaos --serve``)
# ---------------------------------------------------------------------------

#: Error kinds a degraded serve job may legitimately carry.
DEGRADED_KINDS = ("crash", "timeout", "quarantined", "pool")


@dataclass
class ServeChaosReport:
    """Outcome of one storm against a live :class:`OptimizeService`.

    The invariants, in storm order: every admitted submission is
    answered exactly once; refusals are typed (``busy``/``quota``) and
    succeed on resubmission; failed jobs degrade per-job with a
    documented ``error_kind`` and their original text intact; with the
    validation gate on, no successful result contradicts the gate's
    own evidence vectors (zero wrong outputs); structural duplicates
    submitted by other tenants never execute twice; and the daemon
    answers ``ping`` from admission to drain -- it never dies.
    """

    seed: int
    plan: str = ""
    submitted: int = 0
    accepted: int = 0
    completed: int = 0
    failed: int = 0
    refused_busy: int = 0
    refused_quota: int = 0
    resubmissions: int = 0
    duplicates: int = 0
    coalesced: int = 0
    guard_failures: int = 0
    wrong_outputs: int = 0
    pings_ok: int = 0
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    jobs_per_second: float = 0.0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def success_rate(self) -> float:
        """Completed-without-degradation over completed."""
        if not self.completed:
            return 1.0
        return (self.completed - self.failed) / self.completed

    def summary(self) -> str:
        lines = [
            f"serve chaos: seed {self.seed}, plan "
            f"[{self.plan or '(no faults)'}]",
            f"  submitted {self.submitted} ({self.duplicates} duplicates)"
            f", accepted {self.accepted}, completed {self.completed}, "
            f"failed {self.failed} "
            f"(success rate {self.success_rate * 100:.1f}%)",
            f"  refused busy {self.refused_busy}, quota "
            f"{self.refused_quota}, resubmissions {self.resubmissions}",
            f"  coalesced {self.coalesced}/{self.duplicates} duplicates, "
            f"guard rollbacks {self.guard_failures}, wrong outputs "
            f"{self.wrong_outputs}, pings {self.pings_ok}",
            f"  p50 {self.latency_p50 * 1000:.2f} ms, "
            f"p99 {self.latency_p99 * 1000:.2f} ms, "
            f"{self.jobs_per_second:.1f} jobs/s",
        ]
        for violation in self.violations:
            lines.append(f"    VIOLATION: {violation}")
        lines.append(
            "  OK: all invariants held" if self.ok
            else "  FAILED: serve resilience invariants violated"
        )
        return "\n".join(lines)


def _alpha_duplicate(ir_text: str, name: str, suffix: str) -> Tuple[str, str]:
    """A structurally identical respelling of ``ir_text``.

    Renames the defined function (a different tenant would own a
    different symbol) -- exact text changes, the alpha-invariant
    fingerprint does not, so the daemon must coalesce the pair.
    """
    new_name = f"{name}_{suffix}"
    return ir_text.replace(f"@{name}", f"@{new_name}"), new_name


def run_serve_chaos(
    seed: int = 0,
    job_count: int = 100,
    workers: int = 1,
    deadline: float = 5.0,
    retries: int = 2,
    validate: str = "safe",
    ir_faults: bool = True,
    faults: bool = True,
    base_dir: Optional[str] = None,
    max_queue: int = 8,
    tenant_quota: int = 4,
    duplicate_every: int = 7,
    tenants: Sequence[str] = ("alice", "bob", "carol"),
    journal_dir: Optional[str] = None,
    journal_sync: str = "batch",
) -> ServeChaosReport:
    """Storm a live in-process daemon; see :class:`ServeChaosReport`.

    The service runs *unthreaded*: the storm drives
    ``pump_once`` itself, so admission edges (busy under a small
    ``max_queue``, quota under ``tenant_quota``) and the
    hang-fault virtual clock are deterministic -- same seed, same
    storm, no real sleeps.  Every ``duplicate_every``-th submission is
    chased by an alpha-renamed duplicate from the next tenant, which
    must coalesce onto the original's computation (in-flight dedupe)
    or its cached result -- never a second execution.
    """
    import tempfile

    from ..serve import LoopbackClient, OptimizeService, ServeConfig
    from ..serve.protocol import response_error_kind
    from ..validation import VALIDATION_LEVELS

    if validate not in VALIDATION_LEVELS:
        raise ValueError(f"unknown validation level {validate!r}")

    rng = random.Random(seed)
    if faults:
        plan = build_chaos_plan(rng, job_count, ir_faults=ir_faults)
        spec = plan.spec_string()
    else:
        spec = ""  # fault-free baseline (throughput measurement)
    report = ServeChaosReport(seed=seed, plan=spec)
    corpus = ir_corpus(job_count, seed)

    def storm(root: str) -> None:
        service = OptimizeService(
            ServeConfig(
                workers=workers,
                cache_dir=os.path.join(root, "cache"),
                validate=validate,
                guard_dir=os.path.join(root, "guards"),
                deadline=deadline,
                retries=retries,
                quarantine_file=os.path.join(root, "quarantine.json"),
                fault_plan=spec or None,
                max_queue=max_queue,
                tenant_quota=tenant_quota,
                journal_dir=journal_dir,
                journal_sync=journal_sync,
            )
        )
        service.start(threaded=False)
        client = LoopbackClient(service)
        outstanding: Dict[int, Tuple[str, str, bool]] = {}

        def ping() -> None:
            if client.ping():
                report.pings_ok += 1
            else:
                report.violations.append("daemon stopped answering ping")

        def submit(name: str, text: str, tenant: str, dup: bool) -> None:
            """Admit one job, riding out backpressure deterministically."""
            report.submitted += 1
            for _ in range(10 * max_queue + 10):
                rid = client.submit_optimize(
                    text, name=name, tenant=tenant, emit_ir=True
                )
                refusal = client.poll(rid)
                if refusal is None:
                    report.accepted += 1
                    outstanding[rid] = (name, text, dup)
                    return
                kind = response_error_kind(refusal)
                if kind == "busy":
                    report.refused_busy += 1
                elif kind == "quota":
                    report.refused_quota += 1
                else:
                    report.violations.append(
                        f"{name}: unexpected refusal kind {kind!r}"
                    )
                    return
                report.resubmissions += 1
                # Block until something resolves: over a process pool
                # an instant poll would spin through the attempt
                # budget before any job finishes.
                service.pump_once(wait=None)
            report.violations.append(
                f"{name}: still refused after draining the queue"
            )

        for index, job in enumerate(corpus):
            name, ir_text = job.name, job.text
            tenant = tenants[index % len(tenants)]
            submit(name, ir_text, tenant, dup=False)
            if duplicate_every and index % duplicate_every == 0:
                dup_text, dup_name = _alpha_duplicate(
                    ir_text, name, f"dup{index}"
                )
                report.duplicates += 1
                submit(
                    dup_name, dup_text,
                    tenants[(index + 1) % len(tenants)], dup=True,
                )
            if index % 10 == 0:
                ping()
                service.pump_once()

        # Drain: everything admitted must answer.
        for _ in range(len(outstanding) + 10):
            if service.scheduler.idle:
                break
            service.pump_once(wait=None)
        ping()

        config = service.config.rolag_config()
        for rid, (name, text, dup) in outstanding.items():
            response = client.poll(rid)
            if response is None:
                report.violations.append(f"{name}: admitted but unanswered")
                continue
            report.completed += 1
            kind = response_error_kind(response)
            if kind is not None:
                report.violations.append(
                    f"{name}: admitted job answered with protocol "
                    f"error {kind!r}"
                )
                continue
            result = response["result"]
            if dup and not (
                result.get("dedupe_hit") or result.get("cache_hit")
            ):
                report.violations.append(
                    f"{name}: structural duplicate executed instead of "
                    "coalescing"
                )
            elif dup:
                report.coalesced += 1
            if result["status"] != "ok":
                report.failed += 1
                if result.get("error_kind") not in DEGRADED_KINDS:
                    report.violations.append(
                        f"{name}: unknown error_kind "
                        f"{result.get('error_kind')!r}"
                    )
                if result.get("optimized_ir") != text:
                    report.violations.append(
                        f"{name}: degraded result lost the original text"
                    )
                continue
            if validate == "off":
                continue
            verdict, detail = evidence_verdict(
                text, result["optimized_ir"], config
            )
            if verdict == "error":
                report.violations.append(f"{name}: oracle error: {detail}")
            elif verdict == "wrong":
                report.wrong_outputs += 1
                report.violations.append(
                    f"{name}: validated daemon emitted semantics-"
                    f"changing IR: {detail}"
                )

        snapshot = service.stats_snapshot()
        report.guard_failures = snapshot["driver"]["guard_failures"]
        report.latency_p50 = snapshot["latency_p50"]
        report.latency_p99 = snapshot["latency_p99"]
        report.jobs_per_second = snapshot["jobs_per_second"]
        if report.completed != report.accepted:
            report.violations.append(
                f"accepted {report.accepted} but answered "
                f"{report.completed}"
            )
        service.stop()
        if service.alive:
            report.violations.append("service still alive after stop()")

    if base_dir is not None:
        os.makedirs(base_dir, exist_ok=True)
        storm(base_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="rolag-serve-chaos-") as root:
            storm(root)
    return report


# ---------------------------------------------------------------------------
# Kill chaos against a real supervised daemon
# (``repro chaos --serve --kill-daemon``)
# ---------------------------------------------------------------------------


@dataclass
class ServeKillChaosReport:
    """Outcome of one SIGKILL storm against a supervised daemon.

    The durability contract, end to end: a **real** ``repro serve
    --supervise`` subprocess (write-ahead journal, ``--journal-sync
    always``) is stormed over its pipes and SIGKILLed mid-flight --
    the hard kill an OOM killer or ``kill -9`` delivers, no exit
    handlers, no flushes.  The supervisor must restart it (fresh
    generation in the pid file), the new generation must replay the
    journal, and after resubmitting every unanswered request under
    its original idempotency key:

    * every submitted job is eventually answered (``status: ok``) and
      its output verifies against the evidence oracle;
    * no idempotency key executes twice -- at most one response per
      key reports a fresh execution, the rest are cache / dedupe /
      idempotent hits or journal replays;
    * the supervisor survives every kill and still exits 0 on
      ``shutdown``.
    """

    seed: int
    jobs: int
    kills_requested: int
    kills_delivered: int = 0
    submitted: int = 0
    resubmissions: int = 0
    answered: int = 0
    failed: int = 0
    replayed_responses: int = 0
    idempotent_responses: int = 0
    fresh_executions: int = 0
    duplicate_executions: int = 0
    wrong_outputs: int = 0
    garbage_lines: int = 0
    generations: int = 1
    #: Seconds from each SIGKILL to the next generation's pid-file.
    recovery_seconds: List[float] = field(default_factory=list)
    supervisor_exit: Optional[int] = None
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        recoveries = ", ".join(f"{r:.2f}s" for r in self.recovery_seconds)
        lines = [
            f"serve kill chaos: seed {self.seed}, {self.jobs} job(s), "
            f"{self.kills_delivered}/{self.kills_requested} SIGKILL(s)",
            f"  submitted {self.submitted} (+{self.resubmissions} "
            f"resubmissions), answered {self.answered}, failed "
            f"{self.failed}",
            f"  fresh executions {self.fresh_executions}, duplicates "
            f"{self.duplicate_executions}, replayed "
            f"{self.replayed_responses}, idempotent "
            f"{self.idempotent_responses}, wrong outputs "
            f"{self.wrong_outputs}",
            f"  generations {self.generations}, recovery [{recoveries}], "
            f"supervisor exit {self.supervisor_exit}",
        ]
        for violation in self.violations:
            lines.append(f"    VIOLATION: {violation}")
        lines.append(
            "  OK: all invariants held" if self.ok
            else "  FAILED: durability invariants violated"
        )
        return "\n".join(lines)


def run_serve_kill_chaos(
    seed: int = 0,
    job_count: int = 24,
    workers: int = 1,
    deadline: float = 5.0,
    retries: int = 1,
    validate: str = "safe",
    base_dir: Optional[str] = None,
    kills: int = 2,
    overall_timeout: Optional[float] = None,
) -> ServeKillChaosReport:
    """SIGKILL a live supervised daemon mid-storm; see the report class.

    Unlike :func:`run_serve_chaos` this storms a *subprocess* (the only
    honest way to test SIGKILL): ``repro serve --supervise`` with the
    journal on ``always`` sync, driven over its stdio pipes.  Kills
    land at roughly 1/3 and 2/3 of the submission stream (further
    kills spread evenly); after each one the storm waits for the
    supervisor to publish the next generation's pid, then resubmits
    every still-unanswered request under its original idempotency key.
    """
    import json as json_mod
    import queue as queue_mod
    import signal
    import subprocess
    import sys as sys_mod
    import tempfile
    import threading
    import time

    from ..rolag.config import RolagConfig
    from ..serve.supervisor import read_pid_file
    from ..validation import VALIDATION_LEVELS

    if validate not in VALIDATION_LEVELS:
        raise ValueError(f"unknown validation level {validate!r}")
    kills = max(0, kills)
    report = ServeKillChaosReport(
        seed=seed, jobs=job_count, kills_requested=kills
    )
    if overall_timeout is None:
        overall_timeout = max(120.0, job_count * deadline)

    corpus = ir_corpus(job_count, seed)
    rolag_config = RolagConfig(validate=validate)

    def storm(root: str) -> None:
        pid_file = os.path.join(root, "daemon.pid")
        capacity = str(2 * job_count + 8)
        argv = [
            sys_mod.executable, "-m", "repro", "serve",
            "--supervise",
            "--journal-dir", os.path.join(root, "journal"),
            "--journal-sync", "always",
            "--cache-dir", os.path.join(root, "cache"),
            "--quarantine-file", os.path.join(root, "quarantine.json"),
            "--pid-file", pid_file,
            "--max-queue", capacity,
            "--tenant-quota", capacity,
            "--validate", validate,
            "--workers", str(workers),
            "--deadline", str(deadline),
            "--retries", str(retries),
            "--restart-backoff", "0.05",
            "--restart-window", "600",
            "--max-restarts", str(kills + 3),
        ]
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        assert proc.stdin is not None and proc.stdout is not None
        lines: "queue_mod.Queue[Optional[str]]" = queue_mod.Queue()

        def pump_stdout() -> None:
            for line in proc.stdout:
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=pump_stdout, daemon=True)
        reader.start()
        started_at = time.monotonic()

        def budget_left() -> float:
            return overall_timeout - (time.monotonic() - started_at)

        def send(req_id: str, method: str, params: dict) -> None:
            frame = {
                "jsonrpc": "2.0", "id": req_id,
                "method": method, "params": params,
            }
            proc.stdin.write(
                json_mod.dumps(frame, separators=(",", ":")) + "\n"
            )
            proc.stdin.flush()

        # key -> (name, ir_text); answers land in results[key].
        by_key: Dict[str, Tuple[str, str]] = {}
        results: Dict[str, Dict[str, object]] = {}
        fresh_count: Dict[str, int] = {}
        attempts: Dict[str, int] = {}
        control: Dict[str, Dict[str, object]] = {}
        eof = False

        def submit(key: str) -> None:
            name, text = by_key[key]
            attempt = attempts.get(key, 0)
            attempts[key] = attempt + 1
            send(
                f"{key}:{attempt}", "optimize",
                {
                    "ir": text,
                    "name": name,
                    "tenant": "chaos",
                    "emit_ir": True,
                    "idempotency_key": key,
                },
            )
            if attempt:
                report.resubmissions += 1
            else:
                report.submitted += 1

        def absorb(message: Dict[str, object]) -> None:
            req_id = message.get("id")
            if not isinstance(req_id, str):
                report.garbage_lines += 1
                return
            key = req_id.split(":", 1)[0]
            if key in control or key in ("stats", "shutdown", "ping"):
                control[key] = message
                return
            if key not in by_key:
                report.garbage_lines += 1
                return
            if message.get("error") is not None:
                error = message["error"]
                detail = (
                    error.get("message") if isinstance(error, dict) else error
                )
                report.violations.append(
                    f"{key}: protocol error {detail!r}"
                )
                return
            result = message.get("result")
            if not isinstance(result, dict):
                report.garbage_lines += 1
                return
            if result.get("replayed"):
                report.replayed_responses += 1
            if result.get("idempotent_hit"):
                report.idempotent_responses += 1
            if not (
                result.get("cache_hit")
                or result.get("dedupe_hit")
                or result.get("idempotent_hit")
            ):
                fresh_count[key] = fresh_count.get(key, 0) + 1
                report.fresh_executions += 1
            if key not in results:
                results[key] = result
                report.answered += 1

        def drain_lines(timeout: float) -> int:
            """Absorb buffered responses; returns how many arrived.

            Blocks up to ``timeout`` for the first line, then sweeps
            whatever else is already buffered without waiting.
            """
            nonlocal eof
            absorbed = 0
            while True:
                try:
                    line = lines.get(
                        timeout=max(0.0, timeout) if absorbed == 0 else 0.0
                    )
                except queue_mod.Empty:
                    return absorbed
                if line is None:
                    eof = True
                    return absorbed
                text = line.strip()
                if not text:
                    continue
                try:
                    message = json_mod.loads(text)
                except ValueError:
                    # A generation died mid-write: the torn frame is
                    # tolerated, its job recovers via journal replay
                    # or resubmission.
                    report.garbage_lines += 1
                    continue
                absorb(message)
                absorbed += 1

        def kill_daemon() -> bool:
            """SIGKILL the live generation; wait for its successor."""
            info = None
            waited_at = time.monotonic()
            while info is None and time.monotonic() - waited_at < 30.0:
                info = read_pid_file(pid_file)
                if info is None:
                    time.sleep(0.02)
            if info is None:
                report.violations.append("pid file never appeared")
                return False
            generation = int(info.get("generation", 0))
            try:
                os.kill(int(info["pid"]), signal.SIGKILL)
            except (OSError, ValueError) as error:
                report.violations.append(f"could not kill daemon: {error}")
                return False
            killed_at = time.monotonic()
            report.kills_delivered += 1
            while time.monotonic() - killed_at < 60.0:
                info = read_pid_file(pid_file)
                if info is not None and int(
                    info.get("generation", 0)
                ) > generation:
                    recovery = time.monotonic() - killed_at
                    report.recovery_seconds.append(recovery)
                    report.generations = int(info["generation"])
                    return True
                time.sleep(0.02)
            report.violations.append(
                f"no new generation within 60s of SIGKILL "
                f"(generation {generation})"
            )
            return False

        # -- the storm ------------------------------------------------------
        kill_points = {
            max(1, (index + 1) * job_count // (kills + 1))
            for index in range(kills)
        }
        for index, job in enumerate(corpus):
            key = f"k{index}"
            by_key[key] = (job.name, job.text)
            submit(key)
            if index + 1 in kill_points:
                # Let the live generation boot and answer something
                # first: killing a daemon that never read its stdin
                # only exercises resubmission, not journal replay.
                before_kill = len(results)
                settle_at = time.monotonic()
                while (
                    len(results) == before_kill
                    and time.monotonic() - settle_at < 5.0
                ):
                    drain_lines(0.2)
                if kill_daemon():
                    # Everything unanswered might have died in the old
                    # generation's stdin buffer: resubmit it all under
                    # the same keys -- the journal/idempotency layers
                    # make the overlap coalesce instead of re-execute.
                    drain_lines(0.0)
                    for pending_key in by_key:
                        if pending_key not in results:
                            submit(pending_key)

        # -- drain ----------------------------------------------------------
        stall_retries = 3
        while len(results) < len(by_key) and not eof and budget_left() > 0:
            before = len(results)
            drain_lines(min(10.0, max(0.1, budget_left())))
            if len(results) == before and stall_retries > 0:
                stall_retries -= 1
                for pending_key in by_key:
                    if pending_key not in results:
                        submit(pending_key)
        for key in by_key:
            if key not in results:
                report.violations.append(f"{key}: never answered")

        # -- verify ---------------------------------------------------------
        for key, result in sorted(results.items()):
            name, text = by_key[key]
            if fresh_count.get(key, 0) > 1:
                report.duplicate_executions += fresh_count[key] - 1
                report.violations.append(
                    f"{key}: executed {fresh_count[key]} times despite "
                    "its idempotency key"
                )
            if result.get("status") != "ok":
                report.failed += 1
                report.violations.append(
                    f"{key} ({name}): failed with "
                    f"{result.get('error_kind')!r}: {result.get('error')}"
                )
                continue
            optimized = result.get("optimized_ir")
            if not isinstance(optimized, str) or not optimized.strip():
                report.violations.append(
                    f"{key} ({name}): ok result carries no IR"
                )
                continue
            verdict, detail = evidence_verdict(text, optimized, rolag_config)
            if verdict == "error":
                report.violations.append(
                    f"{key} ({name}): oracle error: {detail}"
                )
            elif verdict == "wrong":
                report.wrong_outputs += 1
                report.violations.append(
                    f"{key} ({name}): recovered output is semantics-"
                    f"changing: {detail}"
                )

        # -- shutdown -------------------------------------------------------
        try:
            send("shutdown:0", "shutdown", {})
        except (BrokenPipeError, OSError, ValueError):
            report.violations.append("could not send shutdown")
        shutdown_at = time.monotonic()
        while (
            "shutdown" not in control
            and not eof
            and time.monotonic() - shutdown_at < 60.0
        ):
            drain_lines(1.0)
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            report.supervisor_exit = proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10.0)
            report.violations.append("supervisor did not exit; killed")
        if report.supervisor_exit is not None and report.supervisor_exit != 0:
            report.violations.append(
                f"supervisor exited {report.supervisor_exit}, expected 0"
            )
        if report.kills_delivered < kills:
            report.violations.append(
                f"only {report.kills_delivered}/{kills} kill(s) delivered"
            )
        reader.join(timeout=5.0)

    if base_dir is not None:
        os.makedirs(base_dir, exist_ok=True)
        storm(base_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="rolag-kill-chaos-") as root:
            storm(root)
    return report
