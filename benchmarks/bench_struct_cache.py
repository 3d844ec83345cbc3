"""Structural cache exhibit: a renamed corpus rerun must be (nearly) free.

Runs :func:`repro.bench.structcache.run_struct_cache_suite` -- cold
run, rename-perturbed warm rerun, text-SHA baseline, and the
natural-duplication dedupe round -- and pins the acceptance bars of
:func:`repro.bench.structcache.failed_bars`, which
``benchmarks/emit_bench_json.py --suite struct-cache`` applies too:

* the warm rerun of the fully renamed corpus hits the structural
  cache for **every** job (asserted in quick runs too: this is the CI
  smoke gate),
* the warm results agree with a no-cache recompute (zero mismatches)
  and every differential-semantics verdict passes,
* with dedupe on, every alpha-variant twin coalesces onto its
  original (half the jobs execute),
* on full runs, the warm rerun beats the text-keyed baseline by at
  least :data:`~repro.bench.structcache.MIN_SPEEDUP`x.

The machine-readable payload is emitted separately by
``benchmarks/emit_bench_json.py --suite struct-cache`` (writes
``BENCH_struct_cache.json``); this exhibit saves the human-readable
report under ``results/``.
"""

from conftest import save_and_print

from repro.bench.structcache import (
    failed_bars,
    render_struct_cache,
    run_struct_cache_suite,
)


def test_struct_cache_speedup(results_dir, bench_quick):
    results = run_struct_cache_suite(quick=bench_quick)
    text = render_struct_cache(results)
    save_and_print(results_dir, "struct_cache.txt", text)
    failures = failed_bars(results)
    assert not failures, failures
