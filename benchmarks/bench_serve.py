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
  of paired clean/journaled runs (informational under ``--quick``:
  runs of 16 jobs are too short to time).

The machine-readable payload is emitted separately by
``benchmarks/emit_bench_json.py --suite serve`` (writes
``BENCH_serve.json``); this exhibit saves the human-readable report
under ``results/``.
"""

from conftest import save_and_print

from repro.bench.servebench import (
    failed_bars,
    render_serve_bench,
    run_serve_suite,
)


def test_serve_chaos_service_bars(results_dir, bench_quick):
    results = run_serve_suite(quick=bench_quick)
    save_and_print(results_dir, "serve.txt", render_serve_bench(results))
    failures = failed_bars(results)
    assert not failures, failures
