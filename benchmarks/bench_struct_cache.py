"""Structural cache exhibit: a renamed corpus rerun must be (nearly) free.

Records the ``struct-cache`` suite (:mod:`repro.bench.structcache`:
cold run, rename-perturbed warm rerun, text-SHA baseline, and the
natural-duplication dedupe round) through
:func:`repro.bench.record.record_suite`, exactly as
``repro bench --suite struct-cache`` does, then asserts the bars of
:func:`repro.bench.structcache.failed_bars`:

* the warm rerun of the fully renamed corpus hits the structural
  cache for **every** job (asserted in quick runs too: this is the CI
  smoke gate),
* the warm results agree with a no-cache recompute (zero mismatches)
  and every differential-semantics verdict passes,
* with dedupe on, every alpha-variant twin coalesces onto its
  original (half the jobs execute),
* on full runs, the warm rerun beats the text-keyed baseline by at
  least :data:`~repro.bench.structcache.MIN_SPEEDUP`x.

``BENCH_struct_cache.json`` and ``results/struct_cache.txt`` are
written before the assertion, or their ``_quick`` sidecars under
``--bench-quick``.
"""

from conftest import REPO_ROOT

from repro.bench.record import record_suite


def test_struct_cache_speedup(bench_quick):
    failures = record_suite("struct-cache", quick=bench_quick, root=REPO_ROOT)
    assert not failures, failures
