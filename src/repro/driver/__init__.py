"""Parallel, memoizing, fault-tolerant per-function optimization driver.

Public surface::

    from repro.driver import (
        FunctionJob, FunctionResult, DriverReport, DriverStats,
        ServiceStats, TenantStats, ResultCache, QuarantineList,
        quarantine_key, optimize_functions, optimize_one,
        run_one_guarded, default_worker_count, DriverSession,
    )

:class:`DriverSession` is the driver's one engine: incremental
submission over a persistent cache, dedupe table, quarantine list and
worker pool, where each job's result reaches the callback it was
submitted with, exactly once.  The ``repro serve`` daemon drives one
long-lived session; :func:`optimize_functions`, the batch entry point
everything else uses, is a thin client that submits a whole batch,
drains the session, and returns the results in job order.
"""

from .cache import ResultCache, job_key, model_fingerprint
from .core import (
    DriverSession,
    default_worker_count,
    optimize_functions,
    optimize_one,
    run_one_guarded,
)
from .quarantine import QuarantineList, quarantine_key
from .types import (
    DriverReport,
    DriverStats,
    FunctionJob,
    FunctionResult,
    ServiceStats,
    TenantStats,
    percentile,
)

__all__ = [
    "DriverReport",
    "DriverSession",
    "DriverStats",
    "FunctionJob",
    "FunctionResult",
    "QuarantineList",
    "ResultCache",
    "ServiceStats",
    "TenantStats",
    "default_worker_count",
    "job_key",
    "model_fingerprint",
    "optimize_functions",
    "optimize_one",
    "percentile",
    "quarantine_key",
    "run_one_guarded",
]
