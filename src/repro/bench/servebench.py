"""The serve-daemon benchmark: streaming throughput under chaos.

The exhibit behind ``BENCH_serve.json``.  Four measured scenarios of
the live daemon, all streaming the same Angha-style corpus through
the wire protocol with a deliberately small admission window (so
backpressure and resubmission are part of the measured path, not an
untested corner):

* **clean** -- no injected faults, validation off: the daemon's
  baseline latency distribution and throughput (every answer still
  oracle-checked, after the stats snapshot);
* **journaled** -- the identical clean run with the write-ahead job
  journal on: its throughput delta against *clean* is the journal
  overhead.  :data:`JOURNAL_PAIRS` clean/journaled pairs run
  interleaved, alternating which side goes first, and the median of
  the per-pair overheads must stay under
  :data:`MAX_JOURNAL_OVERHEAD_PERCENT`;
* **storm** -- a seeded chaos plan (worker crashes, cooperative
  hangs, cache faults, semantics-changing ``corrupt-ir`` at pass
  exits) with the ``safe`` validation gate on: the service-grade
  claim;
* **recovery** -- the kill storm: a real supervised subprocess
  SIGKILLed mid-flight (twice), which must recover every admitted
  job via journal replay / idempotent resubmission with zero
  duplicate executions and oracle-verified outputs.

Acceptance bars, asserted by ``benchmarks/bench_serve.py`` and
reported in the payload:

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
  the median pair (informational under ``quick``: one noisy pair).
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Tuple

from ..faultinject.chaos import run_serve_chaos, run_serve_kill_chaos

#: Admitted jobs that must complete without degradation under the storm.
MIN_SUCCESS_RATE = 0.99

#: Journaling (batch sync) may cost at most this percent of the clean
#: run's throughput, in the median of the interleaved pairs.
MAX_JOURNAL_OVERHEAD_PERCENT = 5.0

#: Interleaved clean/journaled pairs behind the journal-overhead gate
#: (one under ``quick``).  Each pair is one sample of the overhead, so
#: one slow run moves one sample, not the gate.
JOURNAL_PAIRS = 5


def _clean_run(seed: int, count: int, journal: bool) -> Dict[str, object]:
    return run_serve_chaos(
        seed=seed,
        job_count=count,
        validate="off",
        faults=False,
        retries=1,
        journal=journal,
    ).to_json()


def _overhead_percent(
    clean: Dict[str, object], journaled: Dict[str, object]
) -> float:
    """The journaled run's throughput loss, in percent of the clean's."""
    if clean["jobs_per_second"] <= 0:
        return 0.0
    return (
        (clean["jobs_per_second"] - journaled["jobs_per_second"])
        / clean["jobs_per_second"] * 100.0
    )


def _journal_pairs(seed: int, count: int, pairs: int) -> List[Tuple]:
    """``pairs`` interleaved ``(clean, journaled)`` runs; the clean run
    goes first in even pairs and second in odd ones."""
    out = []
    for index in range(pairs):
        clean_first = index % 2 == 0
        first = _clean_run(seed, count, journal=not clean_first)
        second = _clean_run(seed, count, journal=clean_first)
        out.append((first, second) if clean_first else (second, first))
    return out


def run_serve_suite(
    seed: int = 0, count: int = 100, quick: bool = False
) -> Dict[str, object]:
    """Measure the whole exhibit; returns the JSON-ready payload."""
    if quick:
        count = min(count, 16)
    pairs = _journal_pairs(seed, count, 1 if quick else JOURNAL_PAIRS)
    overheads = [_overhead_percent(*pair) for pair in pairs]
    # The pair at the median overhead (the upper one for an even count)
    # stands for the clean and journaled runs in the report.
    clean, journaled = pairs[
        sorted(range(len(pairs)), key=overheads.__getitem__)[len(pairs) // 2]
    ]
    storm = run_serve_chaos(seed=seed, job_count=count, validate="safe")
    recovery = run_serve_kill_chaos(
        seed=seed,
        job_count=12 if quick else 40,
        validate="safe",
        kills=2,
    )
    return {
        "suite": "serve",
        "quick": bool(quick),
        "seed": seed,
        "count": count,
        "clean": clean,
        "journaled": journaled,
        "journal_overhead_percent": median(overheads),
        "journal_overhead_pairs_percent": overheads,
        "journal_pairs_ok": all(run["ok"] for pair in pairs for run in pair),
        "storm": storm.to_json(),
        "recovery": recovery.to_json(),
        "min_success_rate_bar": MIN_SUCCESS_RATE,
        "max_journal_overhead_percent_bar": MAX_JOURNAL_OVERHEAD_PERCENT,
    }


def render_serve_bench(results: Dict[str, object]) -> str:
    """The human-readable report for ``results/serve.txt``."""
    lines = [
        "serve daemon: streaming throughput and chaos resilience",
        f"  corpus: {results['count']} job(s), seed {results['seed']}"
        + (" [quick]" if results["quick"] else ""),
    ]
    for label in ("clean", "journaled", "storm"):
        r = results[label]
        lines.append(
            f"  {label:<9} p50 {r['latency_p50_ms']:8.2f} ms   "
            f"p99 {r['latency_p99_ms']:8.2f} ms   "
            f"{r['jobs_per_second']:6.1f} jobs/s   "
            f"success {r['success_rate'] * 100:5.1f}%"
        )
    per_pair = ", ".join(
        f"{overhead:+.1f}%"
        for overhead in results["journal_overhead_pairs_percent"]
    )
    lines.append(
        f"  journal overhead {results['journal_overhead_percent']:+.1f}% "
        f"median of pairs [{per_pair}] "
        f"(bar <= {results['max_journal_overhead_percent_bar']:.1f}%)"
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
    lines.append(
        "  OK: service bars hold"
        if storm["ok"]
        and recovery["ok"]
        and storm["success_rate"] >= results["min_success_rate_bar"]
        else "  FAILED: service bars violated"
    )
    return "\n".join(lines)
