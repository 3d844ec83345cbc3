"""Extension: the compiled evaluator tier vs the interpreter.

Not a paper exhibit: this benchmark measures the reproduction's own
fast execution tier -- the closure-compiling evaluator
(``repro.ir.compile_eval``) -- against the reference interpreter on
the three workloads that motivated it: the ``repro difftest``
campaign, repeated oracle observations of hot modules, and TSVC
dynamic-step measurement.  It also runs the fuzzer parity smoke that
holds the two tiers to identical Observations (results, memory,
extern traces, trap kinds, and step counts).

It records the ``compiled-eval`` suite through
:func:`repro.bench.record.record_suite`, exactly as
``repro bench --suite compiled-eval`` does: ``BENCH_compiled_eval.json``
and ``results/ext_compiled_eval.txt`` are written first, then the bars
of :func:`repro.bench.perfsuite.failed_bars` are asserted.  The
correctness bars are absolute: zero campaign mismatches and
unexplained cases under any backend, zero parity mismatches,
identical TSVC step counts.  The speedup bars are asserted only where
evaluation dominates (oracle observations, TSVC dynamic steps); the
whole campaign also parses, prints, rolls and bisects, so its
end-to-end speedup is Amdahl-bounded and merely reported.

``pytest benchmarks/ --bench-quick`` shrinks every workload to smoke
sizes and records to the ``_quick`` sidecars instead.
"""

from conftest import REPO_ROOT

from repro.bench.record import record_suite


def test_ext_compiled_eval(benchmark, bench_quick):
    failures = benchmark.pedantic(
        record_suite,
        args=("compiled-eval",),
        kwargs={"quick": bench_quick, "root": REPO_ROOT},
        rounds=1,
        iterations=1,
    )
    assert not failures, failures
