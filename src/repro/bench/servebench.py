"""The serve-daemon benchmark: streaming throughput under chaos.

The ``serve`` suite of :mod:`repro.bench.record`, behind
``BENCH_serve.json``.  Four measured scenarios of
the live daemon, all streaming the same Angha-style corpus through
the wire protocol with a deliberately small admission window (so
backpressure and resubmission are part of the measured path, not an
untested corner):

* **clean** -- no injected faults, validation off: the daemon's
  baseline latency distribution and throughput (every answer still
  oracle-checked, after the stats snapshot);
* **journaled** -- the identical clean run with the write-ahead job
  journal on: its throughput loss against *clean* is the journal
  overhead.  Clean (side A) and journaled (side B) runs are paired by
  :func:`repro.bench.paired.time_pairs`, and the median of the
  per-pair overheads must stay under :data:`MAX_JOURNAL_OVERHEAD_PERCENT`;
* **storm** -- a seeded chaos plan (worker crashes, cooperative
  hangs, cache faults, semantics-changing ``corrupt-ir`` at pass
  exits) with the ``safe`` validation gate on: the service-grade
  claim;
* **recovery** -- the kill storm: a real supervised subprocess
  SIGKILLed mid-flight (twice), which must recover every admitted
  job via journal replay / idempotent resubmission with zero
  duplicate executions and oracle-verified outputs.

Acceptance bars, checked by :func:`failed_bars` (which
``repro bench --suite serve`` and ``benchmarks/bench_serve.py`` apply)
and reported in the payload:

* the storm completes >= :data:`MIN_SUCCESS_RATE` of admitted jobs
  without degradation, and every resilience invariant holds
  (``report.ok``);
* zero wrong outputs: with the gate on, no successful response
  contradicts the gate's own evidence vectors;
* every structural duplicate submitted by a second tenant coalesces
  (in-flight dedupe or cache hit) -- concurrent identical submissions
  execute at most once;
* the daemon answers every liveness probe from first admission to
  final drain;
* the recovery storm holds every durability invariant
  (``recovery.ok``) and journaling costs <=
  :data:`MAX_JOURNAL_OVERHEAD_PERCENT` percent of clean throughput in
  the median of the pairs (informational under ``quick``: runs of 16
  jobs are too short to time).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List

from ..faultinject.chaos import run_serve_chaos, run_serve_kill_chaos
from .paired import Run, describe_pairs, time_pairs

#: Admitted jobs that must complete without degradation under the storm.
MIN_SUCCESS_RATE = 0.99

#: Journaling (batch sync) may cost at most this percent of the clean
#: run's throughput, in the median of the paired runs.
MAX_JOURNAL_OVERHEAD_PERCENT = 5.0

#: The full run's workload seed and size, and the artifacts
#: :func:`repro.bench.record.record_suite` writes.
SEED = 0
COUNT = 100
JSON = "BENCH_serve.json"
TEXT = "serve.txt"


def _clean_run(seed: int, count: int, journal: bool) -> Dict[str, object]:
    return run_serve_chaos(
        seed=seed,
        job_count=count,
        validate="off",
        faults=False,
        retries=1,
        journal=journal,
    ).to_json()


def _overhead_percent(clean: Run, journaled: Run) -> float:
    """The journaled run's throughput loss, in percent of the clean's."""
    clean_rate = clean.result["jobs_per_second"]
    return (
        (clean_rate - journaled.result["jobs_per_second"])
        / clean_rate * 100.0
    )


def run(
    seed: int = SEED, count: int = COUNT, quick: bool = False
) -> Dict[str, object]:
    """Measure the whole exhibit; returns the JSON-ready payload."""
    if quick:
        count = min(count, 16)
    journal = time_pairs(
        lambda: _clean_run(seed, count, journal=False),
        lambda: _clean_run(seed, count, journal=True),
        ratio=_overhead_percent,
    )
    storm = run_serve_chaos(seed=seed, job_count=count, validate="safe")
    recovery = run_serve_kill_chaos(
        seed=seed,
        job_count=12 if quick else 40,
        validate="safe",
        kills=2,
    )
    # The ratios read jobs_per_second; the clock also spans daemon start.
    journal_timing = journal.to_json()
    del journal_timing["a_seconds"], journal_timing["b_seconds"]
    return {
        "suite": "serve",
        "quick": bool(quick),
        "seed": seed,
        "count": count,
        "clean": [run.result for run in journal.a],
        "journaled": [run.result for run in journal.b],
        "journal_overhead_percent": journal.ratio,
        "journal_timing": journal_timing,
        "storm": storm.to_json(),
        "recovery": recovery.to_json(),
        "min_success_rate_bar": MIN_SUCCESS_RATE,
        "max_journal_overhead_percent_bar": MAX_JOURNAL_OVERHEAD_PERCENT,
    }


def failed_bars(results: Dict[str, object]) -> List[str]:
    """Every service bar a :func:`run` payload misses, one
    message each; empty when every bar holds."""
    storm, recovery = results["storm"], results["recovery"]
    runs = [("clean", run) for run in results["clean"]]
    runs += [("journaled", run) for run in results["journaled"]]
    checks = [
        check
        for label, run in runs + [("storm", storm)]
        for check in (
            (run["ok"], f"{label}: violations: {run['violations']}"),
            (run["completed"] == run["accepted"], f"{label}: unanswered"),
            (run["coalesced"] == run["duplicates"], f"{label}: uncoalesced"),
        )
    ]
    for run in results["clean"]:
        checks.append((run["failed"] == 0, "clean: failed jobs"))
        checks.append((run["guard_failures"] == 0, "clean: guard rollbacks"))
    checks += [
        (
            storm["success_rate"] >= MIN_SUCCESS_RATE,
            f"storm success rate {storm['success_rate'] * 100:.1f}% below "
            f"{MIN_SUCCESS_RATE * 100:.0f}% bar",
        ),
        (storm["wrong_outputs"] == 0, "storm: wrong outputs"),
        (storm["latency_p99_ms"] > 0.0, "storm: no latency recorded"),
        (storm["jobs_per_second"] > 0.0, "storm: no throughput recorded"),
        (recovery["ok"], f"recovery: violations: {recovery['violations']}"),
        (recovery["answered"] == recovery["jobs"], "recovery: unanswered"),
        (recovery["kills"] >= 2, "recovery: fewer than 2 kills"),
        (recovery["duplicate_executions"] == 0, "recovery: duplicates"),
        (recovery["wrong_outputs"] == 0, "recovery: wrong outputs"),
        (recovery["supervisor_exit"] == 0, "recovery: supervisor exit"),
        # A full-run bar: quick runs are too short to time.
        (
            results["quick"]
            or results["journal_overhead_percent"]
            <= MAX_JOURNAL_OVERHEAD_PERCENT,
            f"journal overhead {results['journal_overhead_percent']:.1f}% "
            f"above {MAX_JOURNAL_OVERHEAD_PERCENT:.1f}% bar",
        ),
    ]
    return [message for holds, message in checks if not holds]


def render(results: Dict[str, object]) -> str:
    """The human-readable report for ``results/serve.txt``."""
    lines = [
        "serve daemon: streaming throughput and chaos resilience",
        f"  corpus: {results['count']} job(s), seed {results['seed']}"
        + (" [quick]" if results["quick"] else ""),
    ]
    for label, runs in (
        ("clean", results["clean"]),
        ("journaled", results["journaled"]),
        ("storm", [results["storm"]]),
    ):
        # Clean and journaled: the median of every pair's run.
        p50, p99, rate, success = (
            median(run[key] for run in runs)
            for key in (
                "latency_p50_ms", "latency_p99_ms", "jobs_per_second",
                "success_rate",
            )
        )
        lines.append(
            f"  {label:<9} p50 {p50:8.2f} ms   p99 {p99:8.2f} ms   "
            f"{rate:6.1f} jobs/s   success {success * 100:5.1f}%"
        )
    lines.append(
        "  journal overhead "
        + describe_pairs(results["journal_timing"], "{:+.1f}%")
        + f" (bar <= {results['max_journal_overhead_percent_bar']:.1f}%)"
    )
    storm = results["storm"]
    lines.append(
        f"  storm plan [{storm['plan'] or '(no faults)'}]"
    )
    lines.append(
        f"  storm: {storm['submitted']} submitted, "
        f"{storm['refused_busy']} busy refusals "
        f"({storm['resubmissions']} resubmitted), "
        f"{storm['coalesced']}/{storm['duplicates']} duplicates "
        f"coalesced, {storm['guard_failures']} guard rollbacks, "
        f"{storm['wrong_outputs']} wrong outputs"
    )
    recovery = results["recovery"]
    recoveries = ", ".join(
        f"{r:.2f}s" for r in recovery["recovery_seconds"]
    )
    lines.append(
        f"  recovery: {recovery['kills']} SIGKILL(s), "
        f"{recovery['answered']}/{recovery['jobs']} answered, "
        f"{recovery['duplicate_executions']} duplicate executions, "
        f"{recovery['replayed_responses']} replayed, "
        f"recovery [{recoveries}], supervisor exit "
        f"{recovery['supervisor_exit']}"
    )
    failures = failed_bars(results)
    lines.append(
        "  FAILED: " + "; ".join(failures) if failures
        else "  OK: service bars hold"
    )
    return "\n".join(lines)
