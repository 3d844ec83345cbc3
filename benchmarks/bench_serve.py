"""Serve-daemon exhibit: streaming service quality under chaos.

Records the ``serve`` suite (:mod:`repro.bench.servebench`: paired
clean and journaled baselines, a seeded fault storm against the live
daemon, and a kill storm, all through the wire protocol) through
:func:`repro.bench.record.record_suite`, exactly as
``repro bench --suite serve`` does, then asserts the service-grade
bars of :func:`repro.bench.servebench.failed_bars`:

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
  of paired clean/journaled runs (informational under
  ``--bench-quick``: runs of 16 jobs are too short to time).

``BENCH_serve.json`` and ``results/serve.txt`` are written before the
assertion, or their ``_quick`` sidecars under ``--bench-quick``.
"""

from conftest import REPO_ROOT

from repro.bench.record import record_suite


def test_serve_chaos_service_bars(bench_quick):
    failures = record_suite("serve", quick=bench_quick, root=REPO_ROOT)
    assert not failures, failures
