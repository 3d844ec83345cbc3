"""Serve-daemon exhibit: streaming service quality under chaos.

Runs :func:`repro.bench.servebench.run_serve_suite` -- a clean
baseline pass and a seeded fault storm against the live daemon, both
through the wire protocol -- and pins the service-grade bars:

* every resilience invariant holds under the storm (exactly-once
  answers, typed refusals, per-job degradation, daemon liveness),
* storm success rate is at least
  :data:`~repro.bench.servebench.MIN_SUCCESS_RATE` with the ``safe``
  validation gate on and **zero** wrong outputs,
* every cross-tenant structural duplicate coalesces onto one
  computation (in-flight dedupe / shared structural cache),
* the kill storm (a real supervised daemon SIGKILLed mid-flight)
  recovers every admitted job with zero duplicate executions, and
  journaling stays within its throughput-overhead bar in the median
  of interleaved clean/journaled pairs (informational under
  ``--quick``: one noisy pair).

The machine-readable payload is emitted separately by
``benchmarks/emit_bench_json.py --suite serve`` (writes
``BENCH_serve.json``); this exhibit saves the human-readable report
under ``results/``.
"""

from conftest import save_and_print

from repro.bench.servebench import (
    MAX_JOURNAL_OVERHEAD_PERCENT,
    MIN_SUCCESS_RATE,
    render_serve_bench,
    run_serve_suite,
)


def test_serve_chaos_service_bars(results_dir, bench_quick):
    results = run_serve_suite(quick=bench_quick)
    text = render_serve_bench(results)
    save_and_print(results_dir, "serve.txt", text)

    for label in ("clean", "journaled", "storm"):
        run = results[label]
        assert run["ok"], f"{label}: violations: {run['violations']}"
        assert run["completed"] == run["accepted"]
        assert run["coalesced"] == run["duplicates"]
    assert results["journal_pairs_ok"], "a journal-overhead run failed"

    storm = results["storm"]
    assert storm["success_rate"] >= MIN_SUCCESS_RATE, (
        f"storm success rate {storm['success_rate'] * 100:.1f}% below "
        f"{MIN_SUCCESS_RATE * 100:.0f}% bar"
    )
    assert storm["wrong_outputs"] == 0
    assert storm["latency_p99_ms"] > 0.0
    assert storm["jobs_per_second"] > 0.0

    clean = results["clean"]
    assert clean["failed"] == 0
    assert clean["guard_failures"] == 0

    recovery = results["recovery"]
    assert recovery["ok"], f"recovery: violations: {recovery['violations']}"
    assert recovery["answered"] == recovery["jobs"]
    assert recovery["kills"] >= 2
    assert recovery["duplicate_executions"] == 0
    assert recovery["wrong_outputs"] == 0
    assert recovery["supervisor_exit"] == 0

    # Journal overhead: the median of the per-pair overheads, gated on
    # full runs; a single quick pair is too noisy to fail the build
    # over.
    if not bench_quick:
        assert (
            results["journal_overhead_percent"]
            <= MAX_JOURNAL_OVERHEAD_PERCENT
        ), (
            f"journal overhead "
            f"{results['journal_overhead_percent']:.1f}% above "
            f"{MAX_JOURNAL_OVERHEAD_PERCENT:.1f}% bar"
        )
