#!/usr/bin/env python
"""Emit a machine-readable benchmark payload for CI and trend tracking.

A thin command-line wrapper that runs one benchmark suite directly (no
pytest session needed) and writes its ``BENCH_*.json`` plus the
human-readable ``results/*.txt``:

* ``--suite compiled-eval`` (default) -- the evaluator-backend suite
  (:func:`repro.bench.run_perf_suite`), writing
  ``BENCH_compiled_eval.json``;
* ``--suite struct-cache`` -- the structural-cache suite
  (:func:`repro.bench.structcache.run_struct_cache_suite`), writing
  ``BENCH_struct_cache.json``;
* ``--suite serve`` -- the serve-daemon suite
  (:func:`repro.bench.servebench.run_serve_suite`), writing
  ``BENCH_serve.json``.

It exits 1 when the suite's ``failed_bars`` names a missed bar: the
same bars its pytest exhibit asserts.

Not collected by pytest (the filename matches neither ``test_*`` nor
``bench_*``); the pytest exhibits live in
``benchmarks/bench_ext_compiled_eval.py`` and
``benchmarks/bench_struct_cache.py``.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench_json.py [--quick]
    PYTHONPATH=src python benchmarks/emit_bench_json.py \
        --suite struct-cache --count 40 --json BENCH_struct_cache.json
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.bench.perfsuite import write_bench_json


SUITES = ("compiled-eval", "struct-cache", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=SUITES,
        default="compiled-eval",
        help="which benchmark payload to emit",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="workload size (difftest campaign / corpus functions)",
    )
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--force",
        action="store_true",
        help="let a --quick run overwrite an existing full-run JSON "
        "(by default it is diverted to a *_quick.json sidecar)",
    )
    parser.add_argument("--json", default=None)
    parser.add_argument("--text", default=None)
    args = parser.parse_args(argv)

    if args.suite == "serve":
        from repro.bench.servebench import (
            failed_bars,
            render_serve_bench,
            run_serve_suite,
        )

        results = run_serve_suite(
            seed=0 if args.seed is None else args.seed,
            count=100 if args.count is None else args.count,
            quick=args.quick,
        )
        text = render_serve_bench(results)
        json_path = args.json or "BENCH_serve.json"
        text_path = args.text or "results/serve.txt"
    elif args.suite == "struct-cache":
        from repro.bench.structcache import (
            failed_bars,
            render_struct_cache,
            run_struct_cache_suite,
        )

        results = run_struct_cache_suite(
            seed=2022 if args.seed is None else args.seed,
            count=40 if args.count is None else args.count,
            quick=args.quick,
        )
        text = render_struct_cache(results)
        json_path = args.json or "BENCH_struct_cache.json"
        text_path = args.text or "results/struct_cache.txt"
    else:
        from repro.bench.perfsuite import (
            failed_bars,
            render_perf_suite,
            run_perf_suite,
        )

        results = run_perf_suite(
            seed=0 if args.seed is None else args.seed,
            difftest_count=2000 if args.count is None else args.count,
            quick=args.quick,
        )
        text = render_perf_suite(results)
        json_path = args.json or "BENCH_compiled_eval.json"
        text_path = args.text or "results/ext_compiled_eval.txt"

    wrote_primary = write_bench_json(json_path, results, force=args.force)
    os.makedirs(os.path.dirname(text_path) or ".", exist_ok=True)
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    if wrote_primary:
        print(f"; json written: {json_path}")
    print(f"; text written: {text_path}")
    failures = failed_bars(results)
    for failure in failures:
        print(f"; FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
