"""Transactional-pipeline overhead: ``fast`` validation tax under 5%.

With ``validate="fast"`` every pass and every RoLAG rolling decision
runs inside a transaction: snapshot the function, run, re-verify just
the touched blocks, commit.  Snapshots are identity-preserving list
captures and the incremental verifier scales with the edit, so on a
fault-free corpus batch the whole layer should cost within 5% of the
untransacted driver.

The gate reads the median overhead of paired untransacted/transacted
runs (``check_overhead`` in ``conftest.py``).  The cache is off on
both sides: the point is the per-transaction cost, not memoization.
"""

from conftest import angha_jobs, check_overhead

from repro.driver import optimize_functions
from repro.rolag.config import RolagConfig

MAX_OVERHEAD = 0.05


def test_fast_validation_overhead_under_5_percent(results_dir, bench_quick):
    jobs = angha_jobs(12 if bench_quick else 24)
    plain = RolagConfig()
    validated = RolagConfig(validate="fast")
    check_overhead(
        results_dir,
        "txn_overhead.txt",
        "Transactional-pipeline overhead "
        "(validate=fast, no faults, serial driver)",
        len(jobs),
        "validate=off",
        lambda: optimize_functions(jobs, plain, workers=1),
        "validate=fast",
        lambda: optimize_functions(jobs, validated, workers=1),
        MAX_OVERHEAD,
        bench_quick,
    )
