"""The structural-cache benchmark: rename-proof warm reruns, dedupe wins.

The ``struct-cache`` suite of :mod:`repro.bench.record`, behind
``BENCH_struct_cache.json``.  The scenario the
structural cache exists for: a corpus is optimized once, then comes
back *rename-perturbed* -- the functions are the same work modulo
alpha-renaming (regenerated Angha dumps renumber every temporary;
recompiled projects reseed local names), which a text-keyed cache
misses wholesale.  Each pair of :func:`repro.bench.paired.time_pairs`:

* **cold** (untimed, before the pair) -- a fresh structural cache is
  filled, since a warm rerun must follow a fill;
* **text baseline** (side A) -- what a text-SHA keyed cache would do
  with the perturbed corpus: miss everything and recompute (a cold run
  into a fresh directory, which is exactly that);
* **warm perturbed** (side B) -- every job alpha-renamed (locals *and*
  the defined function, via the real text renamer), same cache: the
  structural keys must all hit;

plus a **natural duplication** pairing: the corpus with an
alpha-variant twin of every function, dedupe off (A) and on (B).

Correctness bar: every warm rerun hits 100%, every result carries a
passing differential-semantics verdict (the runs use
``check_semantics``), and every warm rerun's results match a no-cache
rerun of the perturbed corpus (sizes, savings, rolled-loop counts).
Performance bar (full runs): warm-perturbed beats the text baseline by
``MIN_SPEEDUP``x.
"""

from __future__ import annotations

import tempfile
from statistics import median
from typing import Dict, List

from ..driver import FunctionJob, optimize_functions
from ..frontend import compile_c
from ..ir import (
    parse_module,
    print_module,
    rename_function_locals,
    rename_globals,
    structural_eq,
    structural_summary,
)
from . import angha
from .paired import describe_pairs, time_pairs

#: Full-run bar: a structural warm rerun of a renamed corpus must beat
#: recomputation by at least this much.
MIN_SPEEDUP = 5.0

#: The full run's corpus seed and size, and the artifacts
#: :func:`repro.bench.record.record_suite` writes.
SEED = 2022
COUNT = 40
JSON = "BENCH_struct_cache.json"
TEXT = "struct_cache.txt"


def corpus_jobs(count: int, seed: int = 2022) -> List[FunctionJob]:
    """``count`` Angha-style functions as precompiled IR jobs."""
    return [
        FunctionJob(
            name=cs.name,
            ir_text=print_module(compile_c(cs.source, cs.name)),
            metadata=(("family", cs.family),),
        )
        for cs in angha.generate_sources(count=count, seed=seed)
    ]


def perturb_job(job: FunctionJob, suffix: str = "") -> FunctionJob:
    """An alpha-variant of ``job``: every unique local renamed through
    the canonical namespace and the function itself renamed, using the
    real text renamer (comments/layout survive, names change)."""
    summary = structural_summary(parse_module(job.ir_text))
    canonical = summary.canonical_target(job.name)
    new_name = f"{canonical}{suffix}" if suffix else canonical
    text = rename_globals(
        rename_function_locals(
            job.ir_text, {job.name: summary.fn_renames.get(canonical, {})}
        ),
        {job.name: new_name},
    )
    assert text != job.ir_text, f"{job.name}: perturbation was a no-op"
    return FunctionJob(
        name=new_name, ir_text=text, metadata=job.metadata
    )


def _run(jobs, cache_dir, **kwargs):
    return optimize_functions(
        jobs, workers=1, cache_dir=cache_dir, check_semantics=True, **kwargs
    )


def _count_mismatches(hits, computed) -> int:
    """Result disagreements between warm hits and a fresh recompute."""
    mismatches = 0
    for hit, fresh in zip(hits, computed):
        same = (
            hit.rolag_size == fresh.rolag_size
            and hit.llvm_size == fresh.llvm_size
            and hit.rolag_rolled == fresh.rolag_rolled
            and hit.savings == fresh.savings
            and structural_eq(
                parse_module(hit.optimized_ir),
                parse_module(fresh.optimized_ir),
            )
        )
        if not same:
            mismatches += 1
    return mismatches


def run(
    seed: int = SEED, count: int = COUNT, quick: bool = False
) -> Dict[str, object]:
    """Measure the whole exhibit; returns the JSON-ready payload."""
    if quick:
        count = min(count, 8)
    jobs = corpus_jobs(count, seed=seed)
    perturbed = [perturb_job(job) for job in jobs]
    twins = jobs + [perturb_job(job, suffix="_twin") for job in jobs]
    nocache_report = optimize_functions(
        perturbed, workers=1, check_semantics=True
    )

    with tempfile.TemporaryDirectory(prefix="rolag-structcache-") as root:
        def fresh() -> str:
            return tempfile.mkdtemp(dir=root)

        fills = []  # (cache dir, cold report), one per pair

        def fill() -> None:
            cache_dir = fresh()
            fills.append((cache_dir, _run(jobs, cache_dir)))

        # A text-keyed cache misses a renamed corpus wholesale; its
        # warm rerun *is* a cold run (plus writes, which it also pays).
        warm = time_pairs(
            lambda: _run(perturbed, fresh()),
            lambda: _run(perturbed, fills[-1][0]),
            setup=fill,
        )
        dedupe = time_pairs(
            lambda: _run(twins, fresh(), dedupe=False),
            lambda: _run(twins, fresh()),
        )

    # Counts come from the worst pair: every pair must pass.
    cold = [report for _, report in fills]
    warm_reports = [run.result for run in warm.b]
    hits = min(r.stats.cache_hits for r in warm_reports)
    with_dedupe = [run.result.stats for run in dedupe.b]
    return {
        "suite": "struct_cache",
        "quick": bool(quick),
        "seed": seed,
        "count": count,
        "cold": {
            "seconds": median(r.stats.wall_seconds for r in cold),
            "misses": cold[-1].stats.cache_misses,
            "writes": cold[-1].stats.cache_writes,
        },
        "warm_perturbed": {
            "seconds": warm.seconds("b"),
            "hits": hits,
            "hit_rate": hits / len(perturbed),
        },
        "text_baseline": {
            "seconds": warm.seconds("a"),
            "misses": warm.a[-1].result.stats.cache_misses,
        },
        "speedup": warm.ratio,
        "timing": warm.to_json(),
        "natural_duplication": {
            "jobs": len(twins),
            "dedupe_hits": min(s.dedupe_hits for s in with_dedupe),
            "executed_with_dedupe": max(s.executed for s in with_dedupe),
            "executed_without": dedupe.a[-1].result.stats.executed,
            "seconds_with_dedupe": dedupe.seconds("b"),
            "seconds_without": dedupe.seconds("a"),
            "speedup": dedupe.ratio,
            "timing": dedupe.to_json(),
        },
        "mismatches": max(
            _count_mismatches(r.results, nocache_report.results)
            for r in warm_reports
        ),
        "semantics_ok": all(
            r.semantics_ok
            for report in warm_reports + [nocache_report]
            for r in report.results
        ),
        "min_speedup_bar": MIN_SPEEDUP,
    }


def failed_bars(results: Dict[str, object]) -> List[str]:
    """Every bar a :func:`run` payload misses, one
    message each; empty when every bar holds.  Only the speedup bar
    skips quick runs: the rest are the CI smoke gate."""
    warm, dup = results["warm_perturbed"], results["natural_duplication"]
    half = dup["jobs"] // 2
    checks = [
        (warm["hit_rate"] == 1.0, f"warm hit rate {warm['hit_rate']:.0%}"),
        (results["mismatches"] == 0, "results differ from a no-cache run"),
        (results["semantics_ok"], "a differential-semantics verdict failed"),
        (dup["dedupe_hits"] == half, f"{dup['dedupe_hits']} dedupe hits"),
        (dup["executed_with_dedupe"] == half, "twins executed twice"),
        (
            results["quick"] or results["speedup"] >= MIN_SPEEDUP,
            f"warm rerun speedup {results['speedup']:.2f}x below "
            f"{MIN_SPEEDUP:.1f}x bar",
        ),
    ]
    return [message for holds, message in checks if not holds]


def render(results: Dict[str, object]) -> str:
    """A human-readable report of one suite payload."""
    cold = results["cold"]
    warm = results["warm_perturbed"]
    text = results["text_baseline"]
    dup = results["natural_duplication"]
    lines = [
        "=== Structural cache: rename-perturbed corpus rerun "
        f"({results['count']} functions, seed {results['seed']}"
        f"{', quick' if results['quick'] else ''}) ===",
        f"cold run (fresh cache):        {cold['seconds']:8.2f}s "
        f"({cold['writes']} writes)",
        f"warm rerun, all renamed:       {warm['seconds']:8.2f}s "
        f"({warm['hits']} hits, hit rate {warm['hit_rate']:.0%})",
        f"text-SHA baseline (recompute): {text['seconds']:8.2f}s "
        f"({text['misses']} misses)",
        f"speedup vs text keying:        {results['speedup']:8.2f}x "
        f"(bar: {results['min_speedup_bar']:.1f}x, full runs)",
        f"  per pair: {describe_pairs(results['timing'])}",
        "",
        "--- natural duplication (every function + a renamed twin) ---",
        f"with in-batch dedupe:          {dup['seconds_with_dedupe']:8.2f}s "
        f"({dup['executed_with_dedupe']}/{dup['jobs']} executed, "
        f"{dup['dedupe_hits']} deduped)",
        f"without dedupe:                {dup['seconds_without']:8.2f}s "
        f"({dup['executed_without']}/{dup['jobs']} executed)",
        f"dedupe speedup:                {dup['speedup']:8.2f}x",
        f"  per pair: {describe_pairs(dup['timing'])}",
        "",
        f"result mismatches vs no-cache run: {results['mismatches']}",
        f"all differential-semantics verdicts pass: "
        f"{results['semantics_ok']}",
    ]
    return "\n".join(lines)
