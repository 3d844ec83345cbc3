"""The batch workloads: ``campaign-angha`` and ``tsvc-checked``.

One repetition is one ``optimize_functions`` call over the whole
generated batch with a two-worker pool (the pool is created and closed
inside the call).  The first repetition warms up and is not timed: on
a 2-vCPU VM it ran slower than the median of the rest in four of five
runs, by up to 18%.  Its outputs are the ones checked, and every later
repetition must give the same outputs.  Timed repetitions then run
until ``--seconds`` have passed, and times are reported as medians over
them.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
from time import perf_counter
from typing import List, Optional

from repro.driver import FunctionJob, optimize_functions

from . import layers, workloads
from .check import check_outputs, output_digest
from .outcome import (
    ROOT,
    Outcome,
    apply_check,
    compare_summaries,
    deterministic_summary,
    fresh_dir,
    median,
    p50_p95_ms,
    program_env,
    rolag_counts,
    size_metrics,
)
from .speed import HostSpeed
from .trace import replay

#: Fewest timed repetitions per run, however short ``--seconds`` is.
MIN_REPS = 2

#: Fewest latency samples a full-size run collects: with nearest-rank
#: percentiles, 200 samples leave ten beyond the reported p95.
MIN_LATENCY_SAMPLES = 200

#: Fresh interpreters whose import time ``setup_s`` takes the median of.
SETUP_PROBES = 5

_PROBE = (
    "import repro.driver, repro.bench, repro.rolag; print('ready', flush=True)"
)


def setup_seconds(probes: int = SETUP_PROBES) -> List[float]:
    """Spawn-to-ready times of fresh interpreters importing the driver.

    One unmeasured probe runs first, so a cold bytecode cache in a new
    checkout is not charged to the first sample.
    """
    samples: List[float] = []
    for index in range(probes + 1):
        start = perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-c", _PROBE], stdout=subprocess.PIPE, text=True,
            env=program_env(), cwd=ROOT,
        )
        try:
            line = process.stdout.readline()
            elapsed = perf_counter() - start
        finally:
            process.stdout.close()
            process.wait(timeout=60)
        if line.strip() != "ready" or process.returncode != 0:
            raise RuntimeError("setup probe could not import repro")
        if index:
            samples.append(elapsed)
    return samples


def batch_jobs(workload: str, seed: int, size: Optional[int]) -> List[FunctionJob]:
    if workload == "campaign-angha":
        return workloads.campaign_jobs(seed, size or workloads.CAMPAIGN_JOBS)
    return workloads.tsvc_jobs(seed, kernels=size or 0)


def _config(workload: str):
    if workload == "campaign-angha":
        return workloads.campaign_config()
    return workloads.tsvc_config()


def _pool_run(workload, jobs, workdir, workers=workloads.WORKERS):
    options = workloads.BATCH_OPTIONS[workload]
    cache_dir = (
        fresh_dir(workdir, "cache") if options["use_cache"] else None
    )
    start = perf_counter()
    report = optimize_functions(
        jobs, _config(workload), workers=workers, cache_dir=cache_dir,
        **{k: v for k, v in options.items() if k != "use_cache"},
    )
    wall = perf_counter() - start
    if cache_dir:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return report, wall


def _peak_rss_mb() -> float:
    """This (parent) process plus ``WORKERS`` of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workloads.WORKERS * child) / 1024.0


def run_batch(
    workload: str, seed: int, seconds: float, trace: bool, workdir: str,
    size: Optional[int] = None,
) -> Outcome:
    jobs = batch_jobs(workload, seed, size)
    if trace:
        return _traced(workload, jobs, workdir)
    outcome = Outcome()
    walls: List[float] = []
    latencies: List[float] = []
    min_samples = 0 if size else MIN_LATENCY_SAMPLES
    report, warmup = _pool_run(workload, jobs, workdir)
    outcome.attempted += len(jobs)
    outcome.failed += sum(1 for r in report.results if r.failed)
    first, first_results = deterministic_summary(report.results), report.results
    speed = HostSpeed()
    deadline = perf_counter() + seconds
    while True:
        speed.sample()
        report, wall = _pool_run(workload, jobs, workdir)
        walls.append(wall)
        latencies.extend(report.stats.latency_seconds)
        outcome.attempted += len(jobs)
        outcome.failed += sum(1 for r in report.results if r.failed)
        compare_summaries(
            outcome, f"repetition {len(walls) + 1}", first,
            deterministic_summary(report.results),
        )
        if (
            len(walls) >= MIN_REPS
            and len(latencies) >= min_samples
            and perf_counter() >= deadline
        ):
            break
    rss = _peak_rss_mb()
    setup = setup_seconds()

    scale = speed.factor
    wall = median(walls) * scale
    outcome.metrics.update(
        setup_s=median(setup) * scale,
        wall_s=wall,
        jobs_per_s=len(jobs) / wall,
        peak_rss_mb=rss,
        **p50_p95_ms(latencies, scale),
        **size_metrics(first),
    )
    apply_check(
        outcome, check_outputs(list(zip(jobs, (r.optimized_ir for r in first_results))))
    )
    outcome.info.update(
        jobs=len(jobs), latency_samples=len(latencies),
        warmup_wall=round(warmup, 4), host_speed_factor=round(scale, 4),
        repetition_walls=[round(w, 4) for w in walls],
        output_digest=first["output_digest"],
    )
    return outcome


def _traced(workload: str, jobs: List[FunctionJob], workdir: str) -> Outcome:
    """Per-layer run: one pool run for the driver's counters, then an
    untraced and a traced serial pass over the same inputs."""
    outcome = Outcome()
    options = workloads.BATCH_OPTIONS[workload]
    report, wall = _pool_run(workload, jobs, workdir)
    pool = deterministic_summary(report.results)
    _serial, serial_wall = _pool_run(workload, jobs, workdir, workers=1)
    cache_dir = fresh_dir(workdir, "cache") if options["use_cache"] else None
    traced = replay(
        jobs, _config(workload), cache_dir=cache_dir,
        check_semantics=options["check_semantics"],
        evaluator=options.get("evaluator", "interp"),
    )
    if cache_dir:
        shutil.rmtree(cache_dir, ignore_errors=True)
    replayed = output_digest(r.optimized_ir for r in traced.results)
    if replayed != pool["output_digest"]:
        outcome.problems.append(
            "traced replay drifted from the driver: output digest "
            f"{replayed[:16]} != {pool['output_digest'][:16]}"
        )
    outcome.problems.extend(
        f"missing span {name}" for name in layers.missing_spans(workload, traced)
    )
    outcome.attempted = len(jobs)
    outcome.failed = sum(1 for r in report.results if r.failed)
    outcome.metrics.update(layers.replay_metrics(traced, serial_wall))
    outcome.metrics.update(layers.driver_metrics(report.stats, report.results, wall))
    outcome.metrics.update(rolag_counts(pool))
    outcome.metrics["validation.rollbacks"] = float(pool["guard_rollbacks"])
    apply_check(
        outcome, check_outputs(list(zip(jobs, (r.optimized_ir for r in report.results))))
    )
    outcome.info.update(
        jobs=len(jobs), output_digest=pool["output_digest"],
        replay_wall_s=traced.wall_seconds, untraced_serial_wall_s=serial_wall,
    )
    return outcome
