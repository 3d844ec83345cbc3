"""Resilience-stack overhead: the no-fault tax must stay under 3%.

The hardened driver wraps every job in a guard (fault sites, deadline
checkpoints, retry/quarantine bookkeeping).  With no plan installed a
fault site is a single global read and a checkpoint is a no-op, so a
fault-free serial batch through ``optimize_functions`` should cost
within 3% of calling the raw per-job pipeline in a loop.

The gate reads the median overhead of paired raw-loop/hardened-driver
runs (``check_overhead`` in ``conftest.py``).
"""

from conftest import angha_jobs, check_overhead

from repro.driver import optimize_functions
from repro.driver.core import optimize_one

MAX_OVERHEAD = 0.03


def test_no_fault_overhead_under_3_percent(results_dir, bench_quick):
    jobs = angha_jobs(12 if bench_quick else 24)

    def raw():
        for job in jobs:
            optimize_one(job)

    check_overhead(
        results_dir,
        "driver_resilience_overhead.txt",
        "Resilience-stack overhead (no faults, serial driver)",
        len(jobs),
        "raw pipeline",
        raw,
        "hardened driver",
        lambda: optimize_functions(jobs, workers=1),
        MAX_OVERHEAD,
        bench_quick,
    )
