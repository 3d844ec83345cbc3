"""Extension: the compiled evaluator tier vs the interpreter.

Not a paper exhibit: this benchmark measures the reproduction's own
fast execution tier -- the closure-compiling evaluator
(``repro.ir.compile_eval``) -- against the reference interpreter on
the three workloads that motivated it: the ``repro difftest``
campaign, repeated oracle observations of hot modules, and TSVC
dynamic-step measurement.  It also runs the fuzzer parity smoke that
holds the two tiers to identical Observations (results, memory,
extern traces, trap kinds, and step counts).

The correctness bars are absolute: zero campaign mismatches under any
backend, zero parity mismatches, identical TSVC step counts.  The
speedup bars are asserted only where evaluation dominates (oracle
observations, TSVC dynamic steps); the whole campaign also parses,
prints, rolls and bisects, so its end-to-end speedup is Amdahl-bounded
and merely reported.

``pytest benchmarks/ --bench-quick`` (or ``ROLAG_BENCH_QUICK=1``)
shrinks every workload to smoke sizes.  A quick run never overwrites
a committed full-run ``BENCH_compiled_eval.json``; it is diverted to
a ``*_quick.json`` sidecar instead.
"""

import os

from conftest import save_and_print

from repro.bench.perfsuite import (
    BACKENDS,
    render_perf_suite,
    run_perf_suite,
    write_bench_json,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ext_compiled_eval(benchmark, results_dir, bench_quick):
    results = benchmark.pedantic(
        lambda: run_perf_suite(seed=0, difftest_count=2000, quick=bench_quick),
        rounds=1,
        iterations=1,
    )

    campaign = results["difftest_campaign"]
    for backend in BACKENDS:
        assert campaign[backend]["mismatches"] == 0, backend
        assert campaign[backend]["unexplained"] == 0, backend
    assert results["parity"]["mismatches"] == 0, results["parity"]["details"]
    assert results["tsvc_dynamic"]["steps_equal"]
    if not bench_quick:
        # Where evaluation dominates, the compiled tier must win big:
        # hot-loop execution (the TSVC row) runs ~5x faster.  Fuzzed
        # oracle cases are tiny (hundreds of steps), so fresh
        # per-observation machine setup bounds that row far lower.
        # Each speedup is the median of paired interpreter/compiled
        # runs, so host load slows both sides of each ratio alike.
        assert results["oracle_observations"]["speedup"] >= 1.5
        assert results["tsvc_dynamic"]["speedup"] >= 3.0

    text = render_perf_suite(results)
    save_and_print(results_dir, "ext_compiled_eval.txt", text)
    json_path = os.path.join(REPO_ROOT, "BENCH_compiled_eval.json")
    if write_bench_json(json_path, results):
        print(f"[json saved to {json_path}]")
