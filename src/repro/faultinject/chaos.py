"""Chaos storms: hammer the driver and the daemon with seeded faults.

``repro chaos`` has three fault schedules, each a small driver:

* :func:`run_chaos` -- batch rounds through
  :func:`repro.driver.optimize_functions`, each round under a different
  seeded :class:`~repro.faultinject.FaultPlan` (worker crashes,
  cooperative hangs, cache corruption, pass failures);
* :func:`run_serve_chaos` -- one seeded plan against an unthreaded
  in-process :class:`~repro.serve.OptimizeService`, through the wire
  protocol;
* :func:`run_serve_kill_chaos` -- SIGKILLs against a real supervised
  ``repro serve`` subprocess with the journal on.

The three drive different targets, so their loops stay separate.
Everything after an answer arrives is shared: each storm normalises its
answers to :class:`Answer` and hands them to :func:`check_answer`, the
one oracle policy, and reports on one :class:`ChaosReport`.  Checks
that only make sense for one target stay in that driver: result order
and count (batch), duplicate coalescing and pings (serve), at-most-once
execution per idempotency key (kill), answered equals accepted.

The ``corrupt-ir`` action at the pass-exit sites
(``pipeline.pass.exit``, ``rolag.roll.exit``) injects verifier-clean,
semantics-changing IR mutations, simulating miscompiling passes.  It
is in every faulted serve plan, and in the batch plans under
``ir_faults``.  Oracle-checked storms run on precompiled IR text (not
mini-C), keeping the frontend out of the blast radius, and every ok
answer to an IR input is replayed on the *gate's own evidence vectors*
(:func:`evidence_verdict`).  The headline invariant: a run never emits
semantics-changing IR, except where a round injected ``corrupt-ir``
with the online validation gate (``repro.validation``) off -- there
wrong outputs are counted, showing the gate is load-bearing, but are
not violations.

Everything is derived from ``seed``: the same seed replays the same
storm.  This module imports the driver, the daemon and the corpus
generator, so it is deliberately *not* re-exported from
``repro.faultinject`` -- import it as ``repro.faultinject.chaos``.
"""

from __future__ import annotations

import os
import random
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

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

#: Error kinds a degraded answer may legitimately carry.
DEGRADED_KINDS = ("crash", "timeout", "quarantined", "pool")

#: The serve storm's admission edges: a small window and per-tenant
#: quota so busy/quota refusals and resubmission are on the stormed
#: path, and every 7th job chased by an alpha-renamed duplicate from
#: the next tenant.
SERVE_MAX_QUEUE = 8
SERVE_TENANT_QUOTA = 4
SERVE_TENANTS = ("alice", "bob", "carol")
DUPLICATE_EVERY = 7

#: Display names for counters whose key reads poorly in prose.
_LABELS = {"guard_failures": "guard rollbacks"}


@dataclass
class ChaosRound:
    """One round of a storm: its fault plan, counters and violations.

    ``plan`` is the round's fault-plan spec (``""`` when fault-free),
    or ``None`` when the storm's faults are not a plan (the kill
    storm's SIGKILLs).  ``counts`` holds the storm's counters in
    display order; ``measures`` its timings and rates.
    """

    plan: Optional[str]
    counts: Dict[str, int]
    measures: Dict[str, object] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)


@dataclass
class ChaosReport:
    """Outcome of one storm; the serve storms run a single round."""

    title: str
    seed: int
    jobs: int
    rounds: List[ChaosRound] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(r.violations for r in self.rounds)

    def summary(self) -> str:
        lines = [
            f"{self.title}: seed {self.seed}, {self.jobs} job(s), "
            f"{len(self.rounds)} round(s)"
        ]
        for index, r in enumerate(self.rounds):
            lines.append(
                f"  round {index}" if r.plan is None
                else f"  round {index}: plan [{r.plan or '(no faults)'}]"
            )
            items = [
                f"{_LABELS.get(key, key.replace('_', ' '))} {value}"
                for key, value in r.counts.items()
            ] + [
                f"{key.replace('_', ' ')} {_show(value)}"
                for key, value in r.measures.items()
            ]
            for start in range(0, len(items), 4):
                lines.append("    " + ", ".join(items[start:start + 4]))
            lines.extend(f"    VIOLATION: {v}" for v in r.violations)
        lines.append(
            "  OK: all invariants held" if self.ok
            else "  FAILED: invariants violated"
        )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """A one-round report as one flat row (``BENCH_serve.json``)."""
        (entry,) = self.rounds
        plan = {} if entry.plan is None else {"plan": entry.plan}
        return {
            **plan, **entry.counts, **entry.measures,
            "ok": self.ok, "violations": list(entry.violations),
        }


def _show(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if isinstance(value, list):
        return "[" + ", ".join(_show(v) for v in value) + "]"
    return str(value)


def response_path(result: Dict[str, object]) -> str:
    """Which path answered an ``optimize`` response (see :class:`Answer`).

    The most specific flag wins: a journal replay that hit the cache
    counts as ``cache``, one that executed as ``replayed``.
    """
    for path in ("idempotent", "dedupe", "cache"):
        if result.get(f"{path}_hit"):
            return path
    return "replayed" if result.get("replayed") else "executed"


@dataclass(frozen=True)
class Answer:
    """One answer, normalised across the batch driver and the wire.

    ``text`` is the input (IR, or mini-C when ``ir_input`` is false);
    ``path`` names what answered it: ``executed``, ``cache``,
    ``dedupe``, ``idempotent`` or ``replayed`` (a journal replay that
    executed).
    """

    label: str
    text: str
    ok: bool
    error_kind: Optional[str]
    optimized_ir: str
    path: str
    ir_input: bool = True

    @classmethod
    def from_result(cls, job, result) -> "Answer":
        """A batch driver's :class:`~repro.driver.FunctionResult`."""
        return cls(
            job.label, job.text, not result.failed, result.error_kind,
            result.optimized_ir,
            "dedupe" if result.dedupe_hit
            else "cache" if result.cache_hit else "executed",
            ir_input=job.format == "ir",
        )

    @classmethod
    def from_response(
        cls, label: str, text: str, result: Dict[str, object]
    ) -> "Answer":
        """A daemon's ``optimize`` response body for IR input ``text``."""
        optimized = result.get("optimized_ir")
        return cls(
            label, text, result.get("status") == "ok",
            result.get("error_kind"),
            optimized if isinstance(optimized, str) else "",
            response_path(result),
        )


def check_answer(answer: Answer, entry: ChaosRound, config: object) -> None:
    """The oracle policy every storm applies to every answer.

    Counts ``failed`` and ``wrong_outputs`` on ``entry`` and records
    its violations:

    * a degraded answer carries a kind in :data:`DEGRADED_KINDS` and
      keeps its original text;
    * an ok answer carries non-empty IR;
    * every ok answer to an IR input is replayed on the gate's
      evidence vectors under ``config`` (:func:`evidence_verdict`);
    * a wrong output is a violation unless the round injected
      ``corrupt-ir`` with ``validate=off``.
    """
    if not answer.ok:
        entry.counts["failed"] += 1
        if answer.error_kind not in DEGRADED_KINDS:
            entry.violations.append(
                f"{answer.label}: unknown error_kind {answer.error_kind!r}"
            )
        if answer.optimized_ir != answer.text:
            entry.violations.append(
                f"{answer.label}: degraded result lost the original text"
            )
        return
    if not answer.optimized_ir.strip():
        entry.violations.append(f"{answer.label}: ok answer carries no IR")
        return
    if not answer.ir_input:
        return
    verdict, detail = evidence_verdict(
        answer.text, answer.optimized_ir, config
    )
    if verdict == "error":
        entry.violations.append(f"{answer.label}: oracle error: {detail}")
    elif verdict == "wrong":
        entry.counts["wrong_outputs"] += 1
        if config.validate != "off" or ":corrupt-ir" not in (
            entry.plan or ""
        ):
            entry.violations.append(
                f"{answer.label}: emitted semantics-changing IR: {detail}"
            )


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
    count, step limit and evaluator: ``validate_evaluator`` is the
    gate's backend on a run without the driver's difftest oracle,
    which is every storm here (with the oracle on, the gate observes
    with the oracle's evaluator instead).

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


@contextmanager
def _storm_dir(base_dir: Optional[str], validate: str) -> Iterator[str]:
    """Check ``validate``; yield ``base_dir`` or a discarded temp dir."""
    from ..validation import VALIDATION_LEVELS

    if validate not in VALIDATION_LEVELS:
        raise ValueError(f"unknown validation level {validate!r}")
    if base_dir is not None:
        os.makedirs(base_dir, exist_ok=True)
        yield base_dir
        return
    with tempfile.TemporaryDirectory(prefix="rolag-chaos-") as root:
        yield root


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
    """Batch rounds under seeded fault plans; see the module docstring.

    ``base_dir`` holds the shared cache and quarantine file; a
    temporary directory is used (and discarded) when omitted.  Round 0
    always runs fault-free to warm the shared cache, so later rounds
    exercise the corrupt-entry path against real entries; the
    quarantine file persists across rounds, so repeat offenders get
    skipped the way they would across real runs.  ``validate`` turns
    on the online translation-validation gate at that level;
    ``ir_faults`` adds ``corrupt-ir`` clauses to every faulted round.
    Either one switches the corpus to IR, so every ok answer is
    oracle-checked.
    """
    from ..bench import angha
    from ..driver import FunctionJob, optimize_functions
    from ..rolag.config import RolagConfig

    with _storm_dir(base_dir, validate) as root:
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
        report = ChaosReport("chaos", seed, len(jobs))
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
            entry = ChaosRound(spec, dict.fromkeys((
                "failed", "retried", "quarantined", "cache_corrupt",
                "guard_failures", "wrong_outputs",
            ), 0))
            report.rounds.append(entry)
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
                    cache_dir=os.path.join(root, "cache"),
                    deadline=deadline,
                    retries=retries,
                    quarantine_file=os.path.join(root, "quarantine.json"),
                    fault_plan=plan,
                )
            except Exception as error:
                # A chaos round must never take the campaign down with
                # it: contain, record, and keep storming.
                entry.violations.append(
                    f"campaign error: {type(error).__name__}: {error}"
                )
                continue
            stats = outcome.stats
            entry.counts.update(
                retried=stats.retried,
                quarantined=stats.quarantined,
                cache_corrupt=stats.cache_corrupt,
                guard_failures=stats.guard_failures,
            )
            if len(outcome.results) != len(jobs):
                entry.violations.append(
                    f"{len(jobs)} job(s) in, {len(outcome.results)} "
                    "result(s) out"
                )
                continue
            for job, result in zip(jobs, outcome.results):
                if result.name != job.name:
                    entry.violations.append(
                        f"result order broken: {result.name} for {job.name}"
                    )
                check_answer(Answer.from_result(job, result), entry, config)
            if stats.failed != entry.counts["failed"]:
                entry.violations.append(
                    f"stats.failed={stats.failed} but "
                    f"{entry.counts['failed']} result(s) carry errors"
                )
            if index == 0 and stats.failed:
                entry.violations.append("fault-free round reported failures")
            if index == 0 and stats.guard_failures:
                entry.violations.append(
                    "fault-free round reported guard rollbacks"
                )
    return report


# ---------------------------------------------------------------------------
# Chaos against the live daemon (``repro chaos --serve``)
# ---------------------------------------------------------------------------


def run_serve_chaos(
    seed: int = 0,
    job_count: int = 100,
    workers: int = 1,
    deadline: float = 5.0,
    retries: int = 2,
    validate: str = "safe",
    faults: bool = True,
    base_dir: Optional[str] = None,
    journal: bool = False,
) -> ChaosReport:
    """Storm a live in-process daemon with one seeded plan.

    The invariants, in storm order: every admitted submission is
    answered exactly once; refusals are typed (``busy``/``quota``) and
    succeed on resubmission; every answer passes :func:`check_answer`;
    structural duplicates submitted by other tenants never execute
    twice; and the daemon answers ``ping`` from admission to drain.

    The service runs *unthreaded*: the storm drives ``pump_once``
    itself, so admission edges and the hang-fault virtual clock are
    deterministic -- same seed, same storm, no real sleeps.  Every
    :data:`DUPLICATE_EVERY`-th submission is chased by an alpha-renamed
    duplicate from the next tenant, which must coalesce onto the
    original's computation (in-flight dedupe) or its cached result.
    ``faults=False`` is the fault-free baseline (throughput
    measurement); ``journal`` turns the write-ahead job journal on
    (batch sync).  The service's stats are snapshotted before the
    oracle runs, so its cost stays out of the measures.
    """
    from ..rolag.config import RolagConfig
    from ..serve import LoopbackClient, OptimizeService, ServeConfig
    from ..serve.protocol import response_error_kind

    with _storm_dir(base_dir, validate) as root:
        spec = (
            build_chaos_plan(
                random.Random(seed), job_count, ir_faults=True
            ).spec_string()
            if faults else ""
        )
        corpus = ir_corpus(job_count, seed)
        entry = ChaosRound(spec, dict.fromkeys((
            "submitted", "accepted", "completed", "failed", "refused_busy",
            "refused_quota", "resubmissions", "duplicates", "coalesced",
            "guard_failures", "wrong_outputs", "pings_ok",
        ), 0))
        counts = entry.counts
        report = ChaosReport("serve chaos", seed, len(corpus), [entry])
        service = OptimizeService(
            ServeConfig(
                rolag=RolagConfig(
                    validate=validate, guard_dir=os.path.join(root, "guards")
                ),
                driver=dict(
                    workers=workers,
                    cache_dir=os.path.join(root, "cache"),
                    deadline=deadline,
                    retries=retries,
                    quarantine_file=os.path.join(root, "quarantine.json"),
                    fault_plan=spec or None,
                ),
                max_queue=SERVE_MAX_QUEUE,
                tenant_quota=SERVE_TENANT_QUOTA,
                journal_dir=(
                    os.path.join(root, "journal") if journal else None
                ),
            )
        )
        service.start(threaded=False)
        client = LoopbackClient(service)
        outstanding: Dict[int, Tuple[str, str, bool]] = {}

        def ping() -> None:
            if client.ping():
                counts["pings_ok"] += 1
            else:
                entry.violations.append("daemon stopped answering ping")

        def submit(name: str, text: str, tenant: str, dup: bool) -> None:
            """Admit one job, riding out backpressure deterministically."""
            counts["submitted"] += 1
            for _ in range(10 * SERVE_MAX_QUEUE + 10):
                rid = client.submit_optimize(
                    text, name=name, tenant=tenant, emit_ir=True
                )
                refusal = client.poll(rid)
                if refusal is None:
                    counts["accepted"] += 1
                    outstanding[rid] = (name, text, dup)
                    return
                kind = response_error_kind(refusal)
                if kind not in ("busy", "quota"):
                    entry.violations.append(
                        f"{name}: unexpected refusal kind {kind!r}"
                    )
                    return
                counts[f"refused_{kind}"] += 1
                counts["resubmissions"] += 1
                # Block until something resolves: over a process pool
                # an instant poll would spin through the attempt
                # budget before any job finishes.
                service.pump_once(wait=None)
            entry.violations.append(
                f"{name}: still refused after draining the queue"
            )

        for index, job in enumerate(corpus):
            name, ir_text = job.name, job.text
            tenant = index % len(SERVE_TENANTS)
            submit(name, ir_text, SERVE_TENANTS[tenant], dup=False)
            if index % DUPLICATE_EVERY == 0:
                # A structurally identical respelling: renaming the
                # function changes the text but not the alpha-invariant
                # fingerprint, so the daemon must coalesce the pair.
                dup_name = f"{name}_dup{index}"
                dup_text = ir_text.replace(f"@{name}", f"@{dup_name}")
                counts["duplicates"] += 1
                submit(
                    dup_name, dup_text,
                    SERVE_TENANTS[(tenant + 1) % len(SERVE_TENANTS)],
                    dup=True,
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

        snapshot = service.stats_snapshot()
        counts["guard_failures"] = snapshot["driver"]["guard_failures"]
        entry.measures.update(
            latency_p50_ms=snapshot["latency_p50"] * 1000.0,
            latency_p99_ms=snapshot["latency_p99"] * 1000.0,
            jobs_per_second=snapshot["jobs_per_second"],
        )

        config = service.config.rolag
        for rid, (name, text, dup) in outstanding.items():
            response = client.poll(rid)
            if response is None:
                entry.violations.append(f"{name}: admitted but unanswered")
                continue
            counts["completed"] += 1
            kind = response_error_kind(response)
            if kind is not None:
                entry.violations.append(
                    f"{name}: admitted job answered with protocol "
                    f"error {kind!r}"
                )
                continue
            answer = Answer.from_response(name, text, response["result"])
            if dup and answer.path in ("dedupe", "cache"):
                counts["coalesced"] += 1
            elif dup:
                entry.violations.append(
                    f"{name}: structural duplicate executed instead of "
                    "coalescing"
                )
            check_answer(answer, entry, config)

        completed = counts["completed"]
        entry.measures["success_rate"] = (
            (completed - counts["failed"]) / completed if completed else 1.0
        )
        if completed != counts["accepted"]:
            entry.violations.append(
                f"accepted {counts['accepted']} but answered {completed}"
            )
        service.stop()
        if service.alive:
            entry.violations.append("service still alive after stop()")
    return report


# ---------------------------------------------------------------------------
# Kill chaos against a real supervised daemon
# (``repro chaos --serve --kill-daemon``)
# ---------------------------------------------------------------------------


def run_serve_kill_chaos(
    seed: int = 0,
    job_count: int = 24,
    workers: int = 1,
    deadline: float = 5.0,
    retries: int = 1,
    validate: str = "safe",
    base_dir: Optional[str] = None,
    kills: int = 2,
) -> ChaosReport:
    """SIGKILL a live supervised daemon mid-storm.

    The durability contract, end to end: a **real** ``repro serve
    --supervise`` subprocess (write-ahead journal, ``--journal-sync
    always``) is stormed over its stdio pipes and SIGKILLed mid-flight
    -- the hard kill an OOM killer or ``kill -9`` delivers, no exit
    handlers, no flushes.  Kills land at roughly 1/3 and 2/3 of the
    submission stream (further kills spread evenly); after each one the
    storm waits for the supervisor to publish the next generation's
    pid, then resubmits every still-unanswered request under its
    original idempotency key.  Then:

    * every submitted job is answered ``ok`` (a degraded answer is a
      violation here) and passes :func:`check_answer`;
    * no idempotency key executes twice -- at most one response per
      key reports a fresh execution, the rest are cache / dedupe /
      idempotent hits or journal replays of cached work;
    * the supervisor survives every kill and still exits 0 on
      ``shutdown``.
    """
    import json
    import queue as queue_mod
    import signal
    import subprocess
    import sys
    import threading
    import time

    from ..rolag.config import RolagConfig
    from ..serve.protocol import encode_line, response_error_kind
    from ..serve.supervisor import read_pid_file

    with _storm_dir(base_dir, validate) as root:
        kills = max(0, kills)
        corpus = ir_corpus(job_count, seed)
        entry = ChaosRound(None, dict.fromkeys((
            "jobs", "kills", "submitted", "resubmissions", "answered",
            "failed", "fresh_executions", "duplicate_executions",
            "replayed_responses", "idempotent_responses", "wrong_outputs",
            "generations",
        ), 0))
        counts = entry.counts
        counts.update(jobs=len(corpus), generations=1)
        entry.measures.update(recovery_seconds=[], supervisor_exit=None)
        report = ChaosReport("serve kill chaos", seed, len(corpus), [entry])

        pid_file = os.path.join(root, "daemon.pid")
        capacity = str(2 * job_count + 8)
        argv = [
            sys.executable, "-m", "repro", "serve",
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
        give_up_at = time.monotonic() + max(120.0, job_count * deadline)

        def send(req_id: str, method: str, params: dict) -> None:
            proc.stdin.write(encode_line({
                "jsonrpc": "2.0", "id": req_id,
                "method": method, "params": params,
            }))
            proc.stdin.flush()

        # key -> (name, ir_text); answers land in results[key].
        by_key: Dict[str, Tuple[str, str]] = {}
        results: Dict[str, Dict[str, object]] = {}
        fresh_count: Dict[str, int] = {}
        attempts: Dict[str, int] = {}
        shutdown_acked = eof = False

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
            counts["resubmissions" if attempt else "submitted"] += 1

        def absorb(message: Dict[str, object]) -> None:
            # Frames that are not ours (or torn by a kill) are tolerated:
            # their jobs recover via journal replay or resubmission.
            nonlocal shutdown_acked
            req_id = message.get("id")
            if not isinstance(req_id, str):
                return
            key = req_id.split(":", 1)[0]
            if key == "shutdown":
                shutdown_acked = True
                return
            if key not in by_key:
                return
            kind = response_error_kind(message)
            if kind is not None:
                entry.violations.append(
                    f"{key}: protocol error {kind!r}: {message['error']}"
                )
                return
            result = message.get("result")
            if not isinstance(result, dict):
                return
            path = response_path(result)
            counts["replayed_responses"] += bool(result.get("replayed"))
            counts["idempotent_responses"] += path == "idempotent"
            if path in ("executed", "replayed"):
                fresh_count[key] = fresh_count.get(key, 0) + 1
                counts["fresh_executions"] += 1
            if key not in results:
                results[key] = result
                counts["answered"] += 1

        def drain_lines(timeout: float) -> None:
            """Absorb buffered responses.

            Blocks up to ``timeout`` for the first response, then sweeps
            whatever else is already buffered without waiting.
            """
            nonlocal eof
            while True:
                try:
                    line = lines.get(timeout=max(0.0, timeout))
                except queue_mod.Empty:
                    return
                if line is None:
                    eof = True
                    return
                try:
                    message = json.loads(line)
                except ValueError:
                    continue  # blank, or a generation died mid-write
                absorb(message)
                timeout = 0.0

        def resubmit_unanswered() -> None:
            for key in by_key:
                if key not in results:
                    submit(key)

        def await_generation(after: int, timeout: float):
            """The pid file once it names a generation past ``after``."""
            waited_at = time.monotonic()
            while time.monotonic() - waited_at < timeout:
                info = read_pid_file(pid_file)
                if info and int(info.get("generation", 0)) > after:
                    return info
                time.sleep(0.02)
            return None

        def kill_daemon() -> bool:
            """SIGKILL the live generation; wait for its successor."""
            info = await_generation(-1, 30.0)
            if info is None:
                entry.violations.append("pid file never appeared")
                return False
            generation = int(info.get("generation", 0))
            try:
                os.kill(int(info["pid"]), signal.SIGKILL)
            except (OSError, ValueError) as error:
                entry.violations.append(f"could not kill daemon: {error}")
                return False
            killed_at = time.monotonic()
            counts["kills"] += 1
            info = await_generation(generation, 60.0)
            if info is None:
                entry.violations.append(
                    f"no new generation within 60s of SIGKILL "
                    f"(generation {generation})"
                )
                return False
            entry.measures["recovery_seconds"].append(
                time.monotonic() - killed_at
            )
            counts["generations"] = int(info["generation"])
            return True

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
                    resubmit_unanswered()

        # -- drain ----------------------------------------------------------
        stall_retries = 3
        while (
            len(results) < len(by_key)
            and not eof
            and time.monotonic() < give_up_at
        ):
            before = len(results)
            drain_lines(min(10.0, max(0.1, give_up_at - time.monotonic())))
            if len(results) == before and stall_retries > 0:
                stall_retries -= 1
                resubmit_unanswered()

        # -- verify ---------------------------------------------------------
        rolag_config = RolagConfig(validate=validate)
        for key, (name, text) in by_key.items():
            result = results.get(key)
            if result is None:
                entry.violations.append(f"{key}: never answered")
                continue
            if fresh_count.get(key, 0) > 1:
                counts["duplicate_executions"] += fresh_count[key] - 1
                entry.violations.append(
                    f"{key}: executed {fresh_count[key]} times despite "
                    "its idempotency key"
                )
            answer = Answer.from_response(f"{key} ({name})", text, result)
            if not answer.ok:
                entry.violations.append(
                    f"{answer.label}: failed with {answer.error_kind!r}: "
                    f"{result.get('error')}"
                )
            check_answer(answer, entry, rolag_config)

        # -- shutdown -------------------------------------------------------
        try:
            send("shutdown:0", "shutdown", {})
        except (BrokenPipeError, OSError, ValueError):
            entry.violations.append("could not send shutdown")
        shutdown_at = time.monotonic()
        while (
            not shutdown_acked
            and not eof
            and time.monotonic() - shutdown_at < 60.0
        ):
            drain_lines(1.0)
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            exit_code = proc.wait(timeout=60.0)
            entry.measures["supervisor_exit"] = exit_code
            if exit_code != 0:
                entry.violations.append(
                    f"supervisor exited {exit_code}, expected 0"
                )
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10.0)
            entry.violations.append("supervisor did not exit; killed")
        if counts["kills"] < kills:
            entry.violations.append(
                f"only {counts['kills']}/{kills} kill(s) delivered"
            )
        reader.join(timeout=5.0)
    return report
